//! The admission front door (serving layer): queueing, coalescing and
//! backpressure ahead of the service.
//!
//! Independent clients [`submit`] single typed [`Query`] values and get a
//! [`Ticket`] back immediately; pump threads drain the queue in
//! [`AdmissionConfig::coalesce`]-sized slices and drive each slice,
//! heaviest families first, through the existing mixed-family batch path
//! ([`crate::ConnService::execute_batch_threads`]), so single-query
//! clients transparently get batch economics — warm pooled engines, all
//! workers busy — without holding a service reference themselves, and
//! each [`Response`] still carries its own query's stats and tree I/O.
//! When the queue is full, [`submit`] rejects with [`Error::Overloaded`]
//! instead of buffering unboundedly: admission is where backpressure
//! belongs, not inside the kernels.
//!
//! [`submit`]: Admission::submit

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use crate::error::Error;
use crate::query::{Query, QueryKind, Response};
use crate::service::ConnService;

/// Tunables of the admission queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Maximum queued (admitted but not yet executed) queries before
    /// [`Admission::submit`] starts rejecting with [`Error::Overloaded`].
    pub max_pending: usize,
    /// Maximum queries one [`Admission::pump`] call drains into a single
    /// mixed-family batch.
    pub coalesce: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_pending: 1024,
            coalesce: 32,
        }
    }
}

/// Shared completion cell between a [`Ticket`] and the pump that fulfils
/// it.
#[derive(Debug)]
struct TicketState {
    // Justified lock: guards only the completion hand-off slot.
    done: Mutex<Option<Result<Response, Error>>>, // lint:allow(no-interior-mutability-in-service)
    cv: Condvar,
}

fn lock_done(state: &TicketState) -> MutexGuard<'_, Option<Result<Response, Error>>> {
    state
        .done
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A client's handle on one admitted query: blocks on [`Ticket::wait`]
/// until a pump executes the coalesced batch containing it.
#[derive(Debug)]
pub struct Ticket {
    state: Arc<TicketState>,
}

impl Ticket {
    /// Blocks until the query is executed and returns its response (or
    /// the batch-level error).
    pub fn wait(self) -> Result<Response, Error> {
        let mut done = lock_done(&self.state);
        loop {
            if let Some(result) = done.take() {
                return result;
            }
            done = self
                .state
                .cv
                .wait(done)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }

    /// Non-blocking poll: the response if the query already executed.
    pub fn try_take(&self) -> Option<Result<Response, Error>> {
        lock_done(&self.state).take()
    }
}

/// One admitted query waiting in the queue.
#[derive(Debug)]
struct Pending {
    query: Query,
    state: Arc<TicketState>,
}

/// The admission queue itself (see the module docs). `Send + Sync`:
/// clients submit and pumps drain from any thread.
#[derive(Debug)]
pub struct Admission {
    cfg: AdmissionConfig,
    // Justified lock: guards only queue push/drain, never query execution.
    queue: Mutex<VecDeque<Pending>>, // lint:allow(no-interior-mutability-in-service)
    served: AtomicU64,
    rejected: AtomicU64,
    batches: AtomicU64,
}

impl Admission {
    /// An empty queue with `cfg` tunables.
    pub fn new(cfg: AdmissionConfig) -> Self {
        Admission {
            cfg,
            // lint:allow(no-interior-mutability-in-service)
            queue: Mutex::new(VecDeque::new()),
            served: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            batches: AtomicU64::new(0),
        }
    }

    fn lock_queue(&self) -> MutexGuard<'_, VecDeque<Pending>> {
        self.queue
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Admits one query, returning the [`Ticket`] a pump will fulfil —
    /// or [`Error::Overloaded`] when `max_pending` queries are already
    /// waiting (backpressure; resubmit after the queue drains).
    pub fn submit(&self, query: Query) -> Result<Ticket, Error> {
        let mut queue = self.lock_queue();
        if queue.len() >= self.cfg.max_pending {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(Error::overloaded(format!(
                "admission queue full ({} pending)",
                queue.len()
            )));
        }
        let state = Arc::new(TicketState {
            // lint:allow(no-interior-mutability-in-service)
            done: Mutex::new(None),
            cv: Condvar::new(),
        });
        queue.push_back(Pending {
            query,
            state: Arc::clone(&state),
        });
        Ok(Ticket { state })
    }

    /// Drains up to [`AdmissionConfig::coalesce`] queued queries into one
    /// mixed-family batch on `service` (with `threads` workers), fulfils
    /// their tickets, and returns how many queries were executed. Call in
    /// a loop from one or more pump threads; returns 0 when the queue was
    /// empty.
    pub fn pump(&self, service: &ConnService<'_>, threads: usize) -> usize {
        let mut slice: Vec<Pending> = {
            let mut queue = self.lock_queue();
            let n = queue.len().min(self.cfg.coalesce.max(1));
            queue.drain(..n).collect()
        };
        if slice.is_empty() {
            return 0;
        }
        // Heaviest families first: every ticket is fulfilled when the
        // slice's last query ends, so the order is invisible to the clients
        // but a segment query reached last runs alone, the others idle.
        slice.sort_by_key(|p| cost_rank(p.query.kind()));
        let queries: Vec<Query> = slice.iter().map(|p| p.query.clone()).collect();
        let n = slice.len();
        match service.execute_batch_threads(&queries, threads) {
            Ok((responses, _batch)) => {
                self.batches.fetch_add(1, Ordering::Relaxed);
                self.served.fetch_add(n as u64, Ordering::Relaxed);
                for (pending, response) in slice.into_iter().zip(responses) {
                    fulfil(&pending.state, Ok(response));
                }
            }
            Err(e) => {
                for pending in slice {
                    fulfil(&pending.state, Err(e.clone()));
                }
            }
        }
        n
    }

    /// Queries currently admitted but not yet executed.
    pub fn pending(&self) -> usize {
        self.lock_queue().len()
    }

    /// Queries executed and fulfilled so far.
    pub fn served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    /// Submissions rejected by backpressure so far.
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Coalesced batches executed so far.
    pub fn batches(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }
}

/// Coarse cost order of the families (cheapest last): polylines and joins
/// run many searches, segment and range queries one over a neighbourhood,
/// the point-to-point families settle a handful of nodes.
fn cost_rank(kind: &QueryKind) -> u8 {
    match kind {
        QueryKind::Trajectory { .. }
        | QueryKind::EDistanceJoin { .. }
        | QueryKind::ClosestPair { .. } => 0,
        QueryKind::Coknn { .. } | QueryKind::Range { .. } | QueryKind::Rnn { .. } => 1,
        QueryKind::Conn { .. } => 2,
        _ => 3,
    }
}

/// Posts `result` into the ticket's completion cell and wakes the waiter.
fn fulfil(state: &TicketState, result: Result<Response, Error>) {
    *lock_done(state) = Some(result);
    state.cv.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::Scene;
    use crate::types::DataPoint;
    use conn_geom::{Point, Rect, Segment};

    fn service() -> ConnService<'static> {
        ConnService::new(Scene::new(
            vec![
                DataPoint::new(0, Point::new(10.0, 20.0)),
                DataPoint::new(1, Point::new(90.0, 25.0)),
            ],
            vec![Rect::new(30.0, 5.0, 40.0, 30.0)],
        ))
    }

    #[test]
    fn submit_pump_wait_roundtrip_matches_direct_execute() {
        let service = service();
        let admission = Admission::new(AdmissionConfig::default());
        let q = Segment::new(Point::new(0.0, 0.0), Point::new(100.0, 0.0));
        // lightest first, so the pump's heaviest-first order has to permute
        // the slice and still hand every ticket its own answer
        let queries = [
            Query::odist(Point::new(0.0, 0.0), Point::new(100.0, 0.0))
                .build()
                .unwrap(),
            Query::onn(Point::new(50.0, 0.0), 1).build().unwrap(),
            Query::conn(q).build().unwrap(),
            Query::coknn(q, 2).build().unwrap(),
        ];
        let tickets: Vec<Ticket> = queries
            .iter()
            .map(|q| admission.submit(q.clone()).unwrap())
            .collect();
        assert_eq!(admission.pending(), 4);
        assert_eq!(admission.pump(&service, 1), 4);
        assert_eq!(admission.pending(), 0);
        assert_eq!(admission.served(), 4);
        assert_eq!(admission.batches(), 1);
        for (ticket, query) in tickets.into_iter().zip(&queries) {
            let via_queue = ticket.wait().unwrap();
            let direct = service.execute(query).unwrap();
            assert_eq!(
                format!("{:?}", via_queue.answer),
                format!("{:?}", direct.answer)
            );
        }
    }

    #[test]
    fn backpressure_rejects_past_max_pending() {
        let admission = Admission::new(AdmissionConfig {
            max_pending: 2,
            coalesce: 32,
        });
        let q = Segment::new(Point::new(0.0, 0.0), Point::new(100.0, 0.0));
        let query = Query::conn(q).build().unwrap();
        let _a = admission.submit(query.clone()).unwrap();
        let _b = admission.submit(query.clone()).unwrap();
        let err = admission.submit(query).unwrap_err();
        assert!(matches!(err, Error::Overloaded(_)));
        assert_eq!(admission.rejected(), 1);
    }

    #[test]
    fn coalesce_bounds_one_pump_slice() {
        let service = service();
        let admission = Admission::new(AdmissionConfig {
            max_pending: 64,
            coalesce: 2,
        });
        let q = Segment::new(Point::new(0.0, 0.0), Point::new(100.0, 0.0));
        let tickets: Vec<Ticket> = (0..5)
            .map(|_| admission.submit(Query::conn(q).build().unwrap()).unwrap())
            .collect();
        assert_eq!(admission.pump(&service, 1), 2);
        assert_eq!(admission.pump(&service, 1), 2);
        assert_eq!(admission.pump(&service, 1), 1);
        assert_eq!(admission.pump(&service, 1), 0);
        assert_eq!(admission.batches(), 3);
        for t in tickets {
            let _ = t.wait().unwrap();
        }
    }

    #[test]
    fn try_take_polls_without_blocking() {
        let service = service();
        let admission = Admission::new(AdmissionConfig::default());
        let q = Segment::new(Point::new(0.0, 0.0), Point::new(100.0, 0.0));
        let ticket = admission.submit(Query::conn(q).build().unwrap()).unwrap();
        assert!(ticket.try_take().is_none());
        admission.pump(&service, 1);
        assert!(ticket.try_take().unwrap().is_ok());
    }
}
