//! The persistent worker-engine pool (serving layer).
//!
//! An [`EnginePool`] owns a set of warm [`QueryEngine`] slots that
//! survive across calls: serial executions round-robin over the slots,
//! batch executions pin one slot per worker thread and work-steal items
//! off a shared cursor. Engines are created lazily on first use and then
//! stay warm — their visibility-graph, Dijkstra and cache allocations are
//! amortized across every query the pool ever serves, not per batch.
//!
//! Counter aggregation is race-free by construction: each slot's
//! [`ReuseCounters`] total is only ever updated while that slot's mutex
//! is held (the same mutex that guards its engine), so concurrent
//! batches and serial executes interleave without losing `sight_tests` /
//! `sweep_events` increments. [`EnginePool::reuse_totals`] sums the slot
//! totals for the pool's lifetime view.

// lint:allow-file(no-panic-in-query-path[index]): slot indices are bounded by ensure_slots in the same call
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

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

/// Recovers the guard from a poisoned lock: pool state is a cache of
/// reusable allocations plus monotonic counters, both valid whatever
/// point the panicking holder reached (engines re-begin every query).
fn lock_slot(slot: &Mutex<PoolSlot>) -> MutexGuard<'_, PoolSlot> {
    slot.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
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
        let mut slots = self
            .slots
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        while slots.len() < n {
            slots.push(Arc::new(Mutex::new(PoolSlot::default())));
        }
        slots.clone()
    }

    /// Number of warm slots currently in the pool.
    pub fn size(&self) -> usize {
        self.slots
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .len()
    }

    /// Runs `f` on one warm engine (round-robin over the slots, blocking
    /// if every slot is busy) and folds the query's reuse counters into
    /// that slot's race-free total.
    pub fn with_engine<R>(
        &self,
        f: impl FnOnce(&mut QueryEngine) -> (R, QueryStats),
    ) -> (R, QueryStats) {
        let slots = self.ensure_slots(1);
        let slot = &slots[self.rr.fetch_add(1, Ordering::Relaxed) % slots.len()];
        let mut guard = lock_slot(slot);
        let cfg = self.cfg;
        let engine = guard.engine.get_or_insert_with(|| QueryEngine::new(cfg));
        let (result, stats) = f(engine);
        guard.totals.accumulate(&stats.reuse);
        (result, stats)
    }

    /// Batch driver: one worker thread per slot (up to `threads`,
    /// resolved by [`pool_size`]), work-stealing item indices off a
    /// shared atomic cursor. Each worker locks its slot *per item*, so
    /// serial executes interleave with a running batch instead of
    /// blocking behind it. Results come back in workload order.
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
        let slots = self.ensure_slots(threads);
        let cfg = self.cfg;
        let cursor = AtomicUsize::new(0);
        let mut collected: Vec<(usize, R, QueryStats)> = Vec::with_capacity(items.len());
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(threads);
            for slot in slots.iter().take(threads) {
                let slot = Arc::clone(slot);
                let cursor = &cursor;
                let f = &f;
                handles.push(scope.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        let mut guard = lock_slot(&slot);
                        let engine = guard.engine.get_or_insert_with(|| QueryEngine::new(cfg));
                        let (res, stats) = f(engine, &items[i]);
                        guard.totals.accumulate(&stats.reuse);
                        drop(guard);
                        local.push((i, res, stats));
                    }
                    local
                }));
            }
            for h in handles {
                // Propagating a worker panic is the only correct response
                // to join() failing: the worker already tore down
                // mid-query. lint:allow(no-panic-in-query-path)
                collected.extend(h.join().expect("pool worker panicked"));
            }
        });
        collected.sort_by_key(|(i, _, _)| *i);
        let mut results = Vec::with_capacity(collected.len());
        let mut stats = Vec::with_capacity(collected.len());
        for (_, r, s) in collected {
            results.push(r);
            stats.push(s);
        }
        (results, threads, stats)
    }

    /// Lifetime reuse-counter totals across every slot — the race-free
    /// aggregate of everything this pool has served (serial and batch).
    pub fn reuse_totals(&self) -> ReuseCounters {
        let slots = self.ensure_slots(0);
        let mut totals = ReuseCounters::default();
        for slot in &slots {
            totals.accumulate(&lock_slot(slot).totals);
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
}
