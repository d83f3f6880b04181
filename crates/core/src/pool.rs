//! The persistent worker-engine pool (serving layer).
//!
//! An [`EnginePool`] owns a set of warm [`QueryEngine`] slots that
//! survive across calls: a serial execution takes the first idle slot
//! (round-robin, blocking, only when every slot is busy); everything run
//! on several workers goes through one worker loop, `serve`, in which each
//! worker keeps its own slot and pulls items one at a time until its
//! source runs dry (the batch path — and a lone trajectory's legs — pull
//! off a cursor over a slice, the admission pump off its live queue).
//! Engines are created lazily on first use and then stay warm — their
//! visibility-graph, Dijkstra and cache allocations are amortized across
//! every query the pool ever serves, not per batch.
//!
//! A worker holds one slot at a time and never waits on another slot
//! while it holds one, so the pool cannot deadlock on itself: code that
//! runs under a slot (a `serve` item, a `with_engine` closure) must not
//! call back into `run`, `serve` or `with_engine`.
//!
//! Counter aggregation is race-free by construction: each slot's
//! [`ReuseCounters`] total is only ever updated while that slot's mutex
//! is held (the same mutex that guards its engine), so concurrent
//! batches and serial executes interleave without losing `sight_tests` /
//! `sweep_events` increments. [`EnginePool::reuse_totals`] sums the slot
//! totals for the pool's lifetime view.

#![expect(
    clippy::indexing_slicing,
    reason = "slot indices are bounded by ensure_slots in the same call"
)]
#![expect(
    clippy::disallowed_types,
    reason = "the slot list's lock is held only to grow or clone the list, a slot's lock for one query on its engine (a worker holds one slot at a time), and the batch results' lock for one push"
)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, TryLockError};

use crate::config::ConnConfig;
use crate::engine::QueryEngine;
use crate::stats::{QueryStats, ReuseCounters};

/// One pool slot: a lazily created warm engine plus its lifetime counter
/// totals, both guarded by the same mutex.
#[derive(Debug, Default)]
struct PoolSlot {
    engine: Option<QueryEngine>,
    totals: ReuseCounters,
}

/// A persistent pool of warm query engines shared by serial and batch
/// execution (see the module docs).
#[derive(Debug)]
pub struct EnginePool {
    cfg: ConnConfig,
    // Slot vector grows monotonically; each slot is its own lock so a
    // serial execute and a batch worker never serialize on the pool.
    slots: Mutex<Vec<Arc<Mutex<PoolSlot>>>>,
    rr: AtomicUsize,
}

/// Recovers the guard from a poisoned lock: pool slots (reusable
/// allocations, monotone counters; engines re-begin every query) and the
/// admission queue and ticket cells are valid wherever a holder panicked.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl EnginePool {
    /// An empty pool; slots are created on demand.
    pub fn new(cfg: ConnConfig) -> Self {
        EnginePool {
            cfg,
            slots: Mutex::new(Vec::new()),
            rr: AtomicUsize::new(0),
        }
    }

    /// Grows the pool to at least `n` slots and returns the current slot
    /// vector (clones of the shared handles).
    fn ensure_slots(&self, n: usize) -> Vec<Arc<Mutex<PoolSlot>>> {
        let mut slots = lock(&self.slots);
        while slots.len() < n {
            slots.push(Arc::new(Mutex::new(PoolSlot::default())));
        }
        slots.clone()
    }

    /// Number of warm slots currently in the pool.
    pub fn size(&self) -> usize {
        lock(&self.slots).len()
    }

    /// Runs `f` on the locked slot's warm engine and folds the query's
    /// reuse counters into the slot's total before releasing it.
    fn on_locked<R>(
        &self,
        mut guard: MutexGuard<'_, PoolSlot>,
        f: impl FnOnce(&mut QueryEngine) -> (R, QueryStats),
    ) -> (R, QueryStats) {
        let cfg = self.cfg;
        let engine = guard.engine.get_or_insert_with(|| QueryEngine::new(cfg));
        let (result, stats) = f(engine);
        guard.totals.accumulate(&stats.reuse);
        (result, stats)
    }

    /// Runs `f` on one warm engine — the first slot that is idle, or,
    /// when every slot is busy, the next one round-robin (blocking until
    /// it frees) — and folds the query's reuse counters into that slot's
    /// race-free total.
    pub fn with_engine<R>(
        &self,
        f: impl FnOnce(&mut QueryEngine) -> (R, QueryStats),
    ) -> (R, QueryStats) {
        let slots = self.ensure_slots(1);
        let idle = slots.iter().find_map(|slot| match slot.try_lock() {
            Ok(guard) => Some(guard),
            Err(TryLockError::Poisoned(poisoned)) => Some(poisoned.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        });
        let guard = idle
            .unwrap_or_else(|| lock(&slots[self.rr.fetch_add(1, Ordering::Relaxed) % slots.len()]));
        self.on_locked(guard, f)
    }

    /// The one worker loop: `threads` workers (at least one; the calling
    /// thread is the first), each on its own slot, take items off `next`
    /// until it returns `None` and run `f` on the slot's warm engine. The
    /// slot is locked *per item*, so serial executes interleave with a
    /// running call instead of blocking behind it. A worker's panic is
    /// re-raised once the other workers have finished.
    #[expect(
        clippy::disallowed_methods,
        reason = "the pool is the one place threads are spawned"
    )]
    pub(crate) fn serve<I>(
        &self,
        threads: usize,
        next: impl Fn() -> Option<I> + Sync,
        f: impl Fn(&mut QueryEngine, I) -> QueryStats + Sync,
    ) {
        let threads = threads.max(1);
        let slots = self.ensure_slots(threads);
        let work = &|slot: &Mutex<PoolSlot>| {
            while let Some(item) = next() {
                let _ = self.on_locked(lock(slot), |engine| ((), f(engine, item)));
            }
        };
        std::thread::scope(|scope| {
            for slot in &slots[1..threads] {
                scope.spawn(move || work(slot));
            }
            work(&slots[0]);
        });
    }

    /// The batch path: [`EnginePool::serve`] over an atomic cursor on
    /// `items`, on up to `threads` workers (resolved by [`pool_size`]).
    /// Results come back in workload order, with the worker count used.
    pub(crate) fn run<I, R, F>(
        &self,
        items: &[I],
        threads: usize,
        f: F,
    ) -> (Vec<R>, usize, Vec<QueryStats>)
    where
        I: Sync,
        R: Send,
        F: Fn(&mut QueryEngine, &I) -> (R, QueryStats) + Sync,
    {
        let threads = pool_size(threads, items.len());
        let cursor = AtomicUsize::new(0);
        let collected = Mutex::new(Vec::with_capacity(items.len()));
        self.serve(
            threads,
            || {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                items.get(i).map(|item| (i, item))
            },
            |engine, (i, item)| {
                let (result, stats) = f(engine, item);
                lock(&collected).push((i, result, stats));
                stats
            },
        );
        let mut collected = collected
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        collected.sort_by_key(|(i, _, _)| *i);
        let (results, stats) = collected.into_iter().map(|(_, r, s)| (r, s)).unzip();
        (results, threads, stats)
    }

    /// Lifetime reuse-counter totals across every slot — the race-free
    /// aggregate of everything this pool has served (serial and batch).
    pub fn reuse_totals(&self) -> ReuseCounters {
        let slots = self.ensure_slots(0);
        let mut totals = ReuseCounters::default();
        for slot in &slots {
            totals.accumulate(&lock(slot).totals);
        }
        totals
    }
}

/// Resolves the worker-pool size: `0` means the machine's available
/// parallelism; the pool never exceeds the workload size.
pub(crate) fn pool_size(requested: usize, queries: usize) -> usize {
    let t = if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        requested
    };
    t.clamp(1, queries.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::DataPoint;
    use conn_geom::{Point, Rect, Segment};
    use conn_index::RStarTree;

    #[test]
    fn pool_size_resolution() {
        assert_eq!(pool_size(4, 10), 4);
        assert_eq!(pool_size(4, 2), 2);
        assert_eq!(pool_size(1, 0), 1);
        assert!(pool_size(0, 100) >= 1);
    }

    #[test]
    fn slots_grow_and_stay_warm() {
        let pool = EnginePool::new(ConnConfig::default());
        assert_eq!(pool.size(), 0);
        let dt = RStarTree::bulk_load(vec![DataPoint::new(0, Point::new(20.0, 30.0))], 4096);
        let ot = RStarTree::bulk_load(vec![Rect::new(40.0, 5.0, 55.0, 35.0)], 4096);
        let q = Segment::new(Point::new(0.0, 0.0), Point::new(60.0, 0.0));
        let ((), _) = pool.with_engine(|e| {
            let (_, s) = e.conn(&dt, &ot, &q);
            ((), s)
        });
        assert_eq!(pool.size(), 1);
        // second serial call reuses the warm slot: graph_reuses recorded
        let ((), _) = pool.with_engine(|e| {
            let (_, s) = e.conn(&dt, &ot, &q);
            ((), s)
        });
        assert_eq!(pool.size(), 1);
        assert_eq!(pool.reuse_totals().graph_reuses, 1);
    }

    /// A serial execution takes an idle slot instead of queueing behind a
    /// busy one: with slot 0 held by another thread, `with_engine` returns
    /// on slot 1 while slot 0 is still held (round-robin would pick slot 0
    /// first and wait for its holder).
    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "a second thread holds a slot while the test thread asks for one"
    )]
    fn with_engine_takes_an_idle_slot_over_a_busy_one() {
        use std::sync::{mpsc, Barrier};
        use std::time::Duration;
        let pool = EnginePool::new(ConnConfig::default());
        let slots = pool.ensure_slots(2);
        let held = &Barrier::new(2);
        let (returned, on_return) = mpsc::channel::<()>();
        std::thread::scope(|scope| {
            // holds slot 0 until with_engine has returned; if with_engine
            // waits on slot 0 instead, the holder gives up after 5 s and
            // reports it rather than hang the test
            let slot0 = &slots[0];
            let holder = scope.spawn(move || {
                let _guard = lock(slot0);
                held.wait();
                on_return.recv_timeout(Duration::from_secs(5)).is_err()
            });
            held.wait();
            let ((), _) = pool.with_engine(|_| ((), QueryStats::default()));
            let _ = returned.send(());
            let gave_up = holder.join().unwrap();
            assert!(!gave_up, "with_engine waited for the busy slot");
        });
        assert!(lock(&slots[0]).engine.is_none());
        assert!(lock(&slots[1]).engine.is_some());
    }

    #[test]
    fn run_aggregates_per_slot_totals() {
        let pool = EnginePool::new(ConnConfig::default());
        let dt = RStarTree::bulk_load(vec![DataPoint::new(0, Point::new(20.0, 30.0))], 4096);
        let ot = RStarTree::bulk_load(vec![Rect::new(40.0, 5.0, 55.0, 35.0)], 4096);
        let queries: Vec<Segment> = (0..12)
            .map(|i| {
                let x = 5.0 * i as f64;
                Segment::new(Point::new(x, 0.0), Point::new(x + 50.0, 0.0))
            })
            .collect();
        let (results, threads, per_query) = pool.run(&queries, 3, |e, q| e.conn(&dt, &ot, q));
        assert_eq!(results.len(), queries.len());
        assert!(threads <= 3 && pool.size() >= threads);
        // workload order, whichever worker ran which item
        for (result, q) in results.iter().zip(&queries) {
            let (fresh, _) = QueryEngine::default().conn(&dt, &ot, q);
            assert_eq!(format!("{result:?}"), format!("{fresh:?}"));
        }
        let mut summed = ReuseCounters::default();
        for s in &per_query {
            summed.accumulate(&s.reuse);
        }
        assert_eq!(
            pool.reuse_totals(),
            summed,
            "slot totals must match per-query sums"
        );
    }

    /// A worker keeps pulling until its source is empty *when it looks*:
    /// items that arrive while it runs are served by the same call, each
    /// exactly once, and the slot's totals are the per-item sums.
    #[test]
    fn serve_picks_up_items_that_arrive_while_it_runs() {
        use std::collections::VecDeque;
        let pool = EnginePool::new(ConnConfig::default());
        let dt = RStarTree::bulk_load(vec![DataPoint::new(0, Point::new(20.0, 30.0))], 4096);
        let ot = RStarTree::bulk_load(vec![Rect::new(40.0, 5.0, 55.0, 35.0)], 4096);
        let queries: Vec<Segment> = (0..6)
            .map(|i| {
                let x = 5.0 * i as f64;
                Segment::new(Point::new(x, 0.0), Point::new(x + 50.0, 0.0))
            })
            .collect();
        let source = Mutex::new(VecDeque::from([0, 1, 2]));
        let served = Mutex::new(Vec::new());
        pool.serve(
            1,
            || source.lock().unwrap().pop_front(),
            |e, i: usize| {
                // each of the first three items submits a follow-up
                if i < 3 {
                    source.lock().unwrap().push_back(i + 3);
                }
                let (_, stats) = e.conn(&dt, &ot, &queries[i]);
                served.lock().unwrap().push((i, stats.reuse));
                stats
            },
        );
        let served = served.into_inner().unwrap();
        let order: Vec<usize> = served.iter().map(|(i, _)| *i).collect();
        assert_eq!(order, [0, 1, 2, 3, 4, 5]);
        let mut summed = ReuseCounters::default();
        for (_, reuse) in &served {
            summed.accumulate(reuse);
        }
        assert_eq!(pool.size(), 1);
        assert_eq!(pool.reuse_totals(), summed);
    }
}
