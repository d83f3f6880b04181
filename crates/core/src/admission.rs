//! The admission front door (serving layer): queueing and backpressure
//! ahead of the service.
//!
//! Independent clients [`submit`] single typed [`Query`] values and get a
//! [`Ticket`] back immediately. The workers of a [`pump`] call, one warm
//! pool engine each, pop queries off the live queue in FIFO order, one at
//! a time, run each against the epoch current when its worker starts it,
//! and fulfil its ticket the moment it ends: no ticket is held for a
//! slower query that shared its call. Each [`Response`] carries its own
//! query's stats and tree I/O. A full queue makes [`submit`] reject with
//! [`Error::Overloaded`] instead of buffering unboundedly: admission is
//! where backpressure belongs, not inside the kernels. A query dropped
//! unanswered (its worker panicked, or its queue was dropped) fails its
//! ticket with [`Error::Internal`]: no ticket waits forever.
//!
//! [`submit`]: Admission::submit
//! [`pump`]: Admission::pump

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
#[expect(clippy::disallowed_types, reason = "the queue and ticket locks below")]
use std::sync::{Arc, Condvar, Mutex, PoisonError};

use crate::error::Error;
use crate::pool::{lock, pool_size};
use crate::query::{Query, Response};
use crate::service::ConnService;

/// Tunables of the admission queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Maximum queued (admitted but not yet executed) queries before
    /// [`Admission::submit`] starts rejecting with [`Error::Overloaded`].
    pub max_pending: usize,
    /// Maximum queries one [`Admission::pump`] call drains: past it the
    /// call's workers take no new query, and it returns once the ones they
    /// hold have ended.
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

/// Shared completion cell between a [`Ticket`] and the [`Promise`] that
/// fulfils it.
#[derive(Debug)]
struct TicketState {
    #[expect(
        clippy::disallowed_types,
        reason = "guards only the completion hand-off slot"
    )]
    done: Mutex<Option<Result<Response, Error>>>,
    cv: Condvar,
}

/// A client's handle on one admitted query: [`Ticket::wait`] blocks until
/// a pump worker has run that query, however long the rest of its pump
/// call takes.
#[derive(Debug)]
pub struct Ticket {
    state: Arc<TicketState>,
}

impl Ticket {
    /// Blocks until the query has run and returns its response — or
    /// [`Error::Internal`] if it was dropped unanswered (its worker
    /// panicked, or the [`Admission`] holding it was dropped).
    pub fn wait(self) -> Result<Response, Error> {
        let mut done = lock(&self.state.done);
        loop {
            if let Some(result) = done.take() {
                return result;
            }
            done = self
                .state
                .cv
                .wait(done)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Non-blocking poll: the response if the query already executed.
    pub fn try_take(&self) -> Option<Result<Response, Error>> {
        lock(&self.state.done).take()
    }
}

/// The queue's end of a ticket, carried with its query through the pump's
/// worker: it answers the ticket exactly once — with the query's response,
/// or, if dropped unanswered, with [`Error::Internal`].
#[derive(Debug)]
struct Promise(Option<Arc<TicketState>>);

impl Promise {
    /// Posts `result` into the ticket's completion cell (unless already
    /// answered) and wakes the waiter.
    fn fulfil(&mut self, result: Result<Response, Error>) {
        if let Some(state) = self.0.take() {
            *lock(&state.done) = Some(result);
            state.cv.notify_all();
        }
    }
}

impl Drop for Promise {
    fn drop(&mut self) {
        if self.0.is_some() {
            let reason = "query dropped unanswered: its worker panicked or its queue was dropped";
            self.fulfil(Err(Error::Internal(reason.to_string())));
        }
    }
}

/// The admission queue itself (see the module docs). `Send + Sync`:
/// clients submit and pumps drain from any thread.
#[derive(Debug)]
pub struct Admission {
    cfg: AdmissionConfig,
    #[expect(
        clippy::disallowed_types,
        reason = "guards only queue push/pop, never query execution"
    )]
    queue: Mutex<VecDeque<(Query, Promise)>>,
    served: AtomicU64,
    rejected: AtomicU64,
    batches: AtomicU64,
}

impl Admission {
    /// An empty queue with `cfg` tunables.
    pub fn new(cfg: AdmissionConfig) -> Self {
        Admission {
            cfg,
            #[expect(clippy::disallowed_types, reason = "the queue lock, see the field")]
            queue: Mutex::new(VecDeque::new()),
            served: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            batches: AtomicU64::new(0),
        }
    }

    /// Admits one query, returning the [`Ticket`] a pump will fulfil —
    /// or [`Error::Overloaded`] when `max_pending` queries are already
    /// waiting (backpressure; resubmit after the queue drains).
    pub fn submit(&self, query: Query) -> Result<Ticket, Error> {
        let mut queue = lock(&self.queue);
        if queue.len() >= self.cfg.max_pending {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(Error::overloaded(format!(
                "admission queue full ({} pending)",
                queue.len()
            )));
        }
        let state = Arc::new(TicketState {
            #[expect(clippy::disallowed_types, reason = "the ticket lock, see the field")]
            done: Mutex::new(None),
            cv: Condvar::new(),
        });
        queue.push_back((query, Promise(Some(Arc::clone(&state)))));
        Ok(Ticket { state })
    }

    /// Serves up to [`AdmissionConfig::coalesce`] queued queries on
    /// `service` with up to `threads` workers (`0` = available
    /// parallelism) and returns how many it served; returns 0 at once,
    /// spawning nothing, when the queue is empty. The workers pop queries
    /// FIFO off the live queue — a query submitted while the call runs is
    /// served by it, up to the cap — and fulfil each ticket as soon as its
    /// own query ends; each query pins the epoch that is current when its
    /// worker starts it. Call in a loop from one or more pump threads.
    pub fn pump(&self, service: &ConnService<'_>, threads: usize) -> usize {
        let cap = self.cfg.coalesce.max(1);
        let queued = lock(&self.queue).len().min(cap);
        if queued == 0 {
            return 0;
        }
        let taken = AtomicUsize::new(0);
        service.serve(
            pool_size(threads, queued),
            || {
                let mut queue = lock(&self.queue);
                // counted under the queue lock, so the cap is exact
                if taken.load(Ordering::Relaxed) == cap {
                    return None;
                }
                let next = queue.pop_front()?;
                taken.fetch_add(1, Ordering::Relaxed);
                Some(next)
            },
            |mut promise, response| {
                self.served.fetch_add(1, Ordering::Relaxed);
                promise.fulfil(Ok(response));
            },
        );
        let n = taken.into_inner();
        self.batches.fetch_add(u64::from(n > 0), Ordering::Relaxed);
        n
    }

    /// Queries currently admitted but not yet started.
    pub fn pending(&self) -> usize {
        lock(&self.queue).len()
    }

    /// Queries executed and fulfilled so far.
    pub fn served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    /// Submissions rejected by backpressure so far.
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// [`Admission::pump`] calls that served at least one query so far.
    pub fn batches(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }
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
        // a mix of families, served FIFO: every ticket gets its own answer
        // whichever worker ran it
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

    #[test]
    fn dropped_queries_fail_their_tickets() {
        let q = Segment::new(Point::new(0.0, 0.0), Point::new(100.0, 0.0));
        let query = Query::conn(q).build().unwrap();
        let admission = Admission::new(AdmissionConfig::default());
        let popped = admission.submit(query.clone()).unwrap();
        let panicked = admission.submit(query.clone()).unwrap();
        let queued = admission.submit(query).unwrap();

        drop(lock(&admission.queue).pop_front());
        assert!(matches!(popped.wait(), Err(Error::Internal(_))));

        // a worker that panics mid-query unwinds through the promise it holds
        let pool = crate::pool::EnginePool::new(crate::ConnConfig::default());
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.serve(
                1,
                || lock(&admission.queue).pop_front(),
                |_, _item| panic!("worker died mid-query"),
            )
        }));
        assert!(died.is_err());
        assert!(matches!(panicked.wait(), Err(Error::Internal(_))));
        assert_eq!(
            admission.pending(),
            1,
            "the worker died before popping more"
        );

        drop(admission);
        assert!(matches!(queued.wait(), Err(Error::Internal(_))));
    }
}
