//! Page-access accounting: the caller-owned [`IoMeter`].
//!
//! The paper's I/O metric is "number of pages accessed", and its total query
//! time charges 10 ms per page *fault* (§5.1). With a buffer, a logical read
//! that hits the buffer is not a fault. Both are properties of *one query's*
//! traversal, so neither the counters nor the buffer live on the tree: a
//! [`crate::RStarTree`] is plain immutable data that any number of threads
//! share, and whoever runs a traversal hands it the meter to charge. One
//! meter belongs to one thread of execution — it is `Send` but deliberately
//! not `Sync` (plain cells, no atomics, no lock), so concurrent queries
//! cannot share one and per-query attribution is exact by construction: a
//! window is `snapshot()` before, `snapshot().since(&before)` after.

#![expect(
    clippy::disallowed_types,
    reason = "IoMeter's cells make the meter deliberately !Sync: one meter charges one thread's queries, so per-query I/O is exact without atomics or a lock"
)]

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::buffer::LruBuffer;
use crate::node::PageId;

/// A point-in-time copy of a meter's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Logical node accesses (buffer hits included).
    pub reads: u64,
    /// Buffer misses — the unit the paper charges 10 ms for.
    pub faults: u64,
}

impl StatsSnapshot {
    /// Counter difference since an earlier snapshot.
    pub fn since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            reads: self.reads - earlier.reads,
            faults: self.faults - earlier.faults,
        }
    }
}

/// Identity of one tree artifact, unique for the life of the process: what
/// keeps buffer frames of different trees apart. (The counter publishes no
/// other data, so `Relaxed` is enough.)
pub(crate) fn fresh_tree_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Caller-owned page meter: monotone logical-read and fault counters plus
/// the LRU buffer that decides which reads fault.
///
/// # Figure 12
///
/// The meter owns the LRU buffer (capacity 0 by default: every read is a
/// fault and the buffer is never consulted). To reproduce the buffer sweep,
/// size the meter with [`IoMeter::set_buffer_pages`] — `bs` % of
/// [`crate::RStarTree::num_pages`] — and run the *whole workload* through
/// that one meter, so that later queries hit what earlier ones brought in;
/// logical reads do not react, faults fall. Frames are keyed by tree
/// identity and page id: page ids repeat across trees (forks, shards,
/// epochs), and a page of one tree must never hit on another's frame.
///
/// One meter serves one thread; sharing it does not compile:
///
/// ```compile_fail
/// fn assert_sync<T: Sync>() {}
/// assert_sync::<conn_index::IoMeter>();
/// ```
#[derive(Debug, Default)]
pub struct IoMeter {
    reads: Cell<u64>,
    faults: Cell<u64>,
    /// `None` at capacity 0: every read faults, nothing is looked up.
    buffer: Option<RefCell<LruBuffer<(u64, PageId)>>>,
}

impl IoMeter {
    /// Sets the buffer capacity in pages, dropping the least recently used
    /// frames when shrinking; 0 disables buffering.
    pub fn set_buffer_pages(&mut self, pages: usize) {
        match &mut self.buffer {
            _ if pages == 0 => self.buffer = None,
            Some(buffer) => buffer.get_mut().set_capacity(pages),
            None => self.buffer = Some(RefCell::new(LruBuffer::new(pages))),
        }
    }

    /// Drops all buffered frames (capacity is kept).
    pub fn clear_buffer(&mut self) {
        if let Some(buffer) = &mut self.buffer {
            buffer.get_mut().clear();
        }
    }

    /// The counters so far.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            reads: self.reads.get(),
            faults: self.faults.get(),
        }
    }

    /// Charges one logical read of `page` of tree `tree`, and a fault
    /// unless the buffer holds that frame.
    #[inline]
    pub(crate) fn charge(&self, tree: u64, page: PageId) {
        self.reads.set(self.reads.get() + 1);
        let hit = self
            .buffer
            .as_ref()
            .is_some_and(|buffer| buffer.borrow_mut().access((tree, page)));
        if !hit {
            self.faults.set(self.faults.get() + 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_snapshot() {
        let m = IoMeter::default();
        m.charge(0, 7);
        m.charge(0, 7);
        m.charge(0, 8);
        assert_eq!(
            m.snapshot(),
            StatsSnapshot {
                reads: 3,
                faults: 3
            }
        );
    }

    #[test]
    fn since_computes_delta() {
        let mut m = IoMeter::default();
        m.set_buffer_pages(4);
        m.charge(0, 1);
        let before = m.snapshot();
        m.charge(0, 2);
        m.charge(0, 1);
        let d = m.snapshot().since(&before);
        assert_eq!(d.reads, 2);
        assert_eq!(d.faults, 1);
    }

    /// Page ids repeat across trees; a frame of one tree is not a hit for
    /// the same page id of another, and both fit the buffer side by side.
    #[test]
    fn frames_are_keyed_by_tree_identity() {
        let mut m = IoMeter::default();
        m.set_buffer_pages(4);
        m.charge(1, 0);
        m.charge(2, 0);
        assert_eq!(m.snapshot().faults, 2, "same page id, different tree");
        m.charge(1, 0);
        m.charge(2, 0);
        assert_eq!(m.snapshot().faults, 2, "each tree hits its own frame");
        m.clear_buffer();
        m.charge(1, 0);
        assert_eq!(m.snapshot().faults, 3);
        m.set_buffer_pages(0);
        m.charge(1, 0);
        assert_eq!(m.snapshot().faults, 4, "capacity 0 never hits");
    }

    #[test]
    fn tree_ids_never_repeat() {
        let a = fresh_tree_id();
        let b = fresh_tree_id();
        assert_ne!(a, b);
    }
}
