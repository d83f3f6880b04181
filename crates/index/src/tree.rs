//! The tree structure, simulated page store, and maintenance entry points.

#![expect(
    clippy::indexing_slicing,
    reason = "page ids and entry indices are tree-structural invariants (children exist, fanout within bounds) re-audited after every mutation by check_invariants / sanitize-invariants"
)]

use conn_geom::{Point, Rect};

use crate::node::{Mbr, Node, PageId, Slot};
use crate::stats::{fresh_tree_id, IoMeter};

/// Paper §5.1: "the page size fixed at 4KB".
pub const DEFAULT_PAGE_SIZE: usize = 4096;

/// Bytes per entry: a 32-byte MBR (4 × f64) plus an 8-byte child pointer or
/// record id. Matches the sizing convention of the R-tree literature the
/// paper builds on.
const ENTRY_BYTES: usize = 40;

/// Per-page header (level, entry count, padding).
const PAGE_HEADER_BYTES: usize = 16;

/// An R\*-tree over items of type `T` stored on simulated 4 KB pages.
///
/// The tree is plain data: nothing in it changes under `&self`, so it is
/// `Send + Sync` and shared freely between threads and epochs. Every query
/// traversal goes through the internal `read` accessor, which charges the
/// access to the [`IoMeter`] its caller handed in (or to nothing, for the
/// unmetered traversals). Structure modifications (insert, bulk load) do not
/// charge I/O — the paper's trees are built before measurement begins.
#[derive(Debug)]
pub struct RStarTree<T> {
    pub(crate) pages: Vec<Node<T>>,
    pub(crate) root: PageId,
    pub(crate) max_entries: usize,
    pub(crate) min_entries: usize,
    len: usize,
    /// What an [`IoMeter`]'s buffer tells this tree's pages from another's
    /// by; fresh for every constructed, forked or loaded tree.
    id: u64,
}

impl<T: Mbr + Clone> RStarTree<T> {
    /// An empty tree with fanout derived from `page_size`.
    pub fn new(page_size: usize) -> Self {
        let max_entries = ((page_size.saturating_sub(PAGE_HEADER_BYTES)) / ENTRY_BYTES).max(4);
        // R* recommendation: minimum fill 40 % of the maximum.
        let min_entries = (max_entries * 2 / 5).max(2);
        Self::with_fanout(max_entries, min_entries)
    }

    /// An empty tree with explicit fanout (small fanouts make structural
    /// tests exercise splits and reinsertions cheaply).
    pub fn with_fanout(max_entries: usize, min_entries: usize) -> Self {
        assert!(max_entries >= 4, "fanout too small");
        assert!(
            min_entries >= 2 && min_entries <= max_entries / 2,
            "invalid minimum fill"
        );
        RStarTree {
            pages: vec![Node::new(0)],
            root: 0,
            max_entries,
            min_entries,
            len: 0,
            id: fresh_tree_id(),
        }
    }

    /// A structural copy of this tree for copy-on-write mutation: pages,
    /// root, fanout and length are cloned under a new identity (the fork
    /// is a *new* serving artifact — live-scene deltas fork the shared
    /// tree, mutate the fork in place, and publish it as the next epoch
    /// while readers keep the original).
    pub fn fork(&self) -> RStarTree<T> {
        RStarTree {
            pages: self.pages.clone(),
            root: self.root,
            max_entries: self.max_entries,
            min_entries: self.min_entries,
            len: self.len,
            id: fresh_tree_id(),
        }
    }

    /// Number of stored items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the tree stores no items.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of pages (nodes) in the tree — the "tree size" that buffer
    /// percentages in Figure 12 refer to.
    pub fn num_pages(&self) -> usize {
        self.pages.len()
    }

    /// Number of levels (1 for a single leaf root).
    pub fn height(&self) -> u32 {
        self.pages[self.root as usize].level + 1
    }

    /// Maximum entries per node (page fanout).
    pub fn max_entries(&self) -> usize {
        self.max_entries
    }

    /// Minimum fill per non-root node.
    pub fn min_entries(&self) -> usize {
        self.min_entries
    }

    /// MBR of the whole tree.
    pub fn bounds(&self) -> Rect {
        self.pages[self.root as usize].mbr()
    }

    // ----- page access layer -------------------------------------------------

    /// Reads a page, charging the access (and a fault on buffer miss) to
    /// `meter` when there is one.
    #[inline]
    pub(crate) fn read(&self, page: PageId, meter: Option<&IoMeter>) -> &Node<T> {
        if let Some(meter) = meter {
            meter.charge(self.id, page);
        }
        &self.pages[page as usize]
    }

    // ----- whole-tree iteration (untracked; for tests and validation) -------

    /// Iterates over all items without charging I/O.
    pub fn iter_items(&self) -> impl Iterator<Item = &T> {
        self.pages.iter().flat_map(|n| {
            n.slots.iter().filter_map(|s| match s {
                Slot::Item(it) => Some(it),
                Slot::Child(_) => None,
            })
        })
    }

    /// Structural invariant check (tests): every child entry's stored MBR
    /// contains its subtree, levels decrease by one, and fill limits hold.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.check_node(self.root, None)?;
        let counted = self.iter_items().count();
        if counted != self.len {
            return Err(format!("len {} != stored items {}", self.len, counted));
        }
        Ok(())
    }

    /// Sanitizer hook: runs [`Self::check_invariants`] after a structure
    /// modification and aborts (via [`conn_geom::sanitize::violation`]) on
    /// any violation. Compiles to nothing without the `sanitize-invariants`
    /// feature; obeys the runtime switch with it.
    #[inline]
    pub(crate) fn audit_structure(&self, op: &str) {
        if conn_geom::sanitize::enabled() {
            if let Err(msg) = self.check_invariants() {
                conn_geom::sanitize::violation(op, &msg);
            }
        }
    }

    fn check_node(&self, page: PageId, expect_level: Option<u32>) -> Result<(), String> {
        let node = &self.pages[page as usize];
        if let Some(l) = expect_level {
            if node.level != l {
                return Err(format!("page {page}: level {} != expected {l}", node.level));
            }
        }
        let is_root = page == self.root;
        if node.mbrs.len() != node.slots.len() {
            return Err(format!(
                "page {page}: lanes diverged ({} envelopes, {} slots)",
                node.mbrs.len(),
                node.slots.len()
            ));
        }
        if !is_root && node.len() < self.min_entries {
            return Err(format!(
                "page {page}: underfull ({} < {})",
                node.len(),
                self.min_entries
            ));
        }
        if node.len() > self.max_entries {
            return Err(format!("page {page}: overfull ({})", node.len()));
        }
        if is_root && !node.is_leaf() && node.len() < 2 {
            return Err("non-leaf root with < 2 children".into());
        }
        for (mbr, slot) in node.mbrs.iter().zip(&node.slots) {
            match slot {
                Slot::Item(_) if !node.is_leaf() => {
                    return Err(format!("item in non-leaf page {page}"));
                }
                Slot::Item(item) => {
                    let actual = item.mbr();
                    if actual != *mbr {
                        return Err(format!("page {page}: stale item envelope"));
                    }
                }
                Slot::Child(child) => {
                    if node.is_leaf() {
                        return Err(format!("child pointer in leaf page {page}"));
                    }
                    let child_node = &self.pages[*child as usize];
                    let actual = child_node.mbr();
                    let grown = Rect::new(
                        mbr.min_x - 1e-9,
                        mbr.min_y - 1e-9,
                        mbr.max_x + 1e-9,
                        mbr.max_y + 1e-9,
                    );
                    if !(grown.contains(Point::new(actual.min_x, actual.min_y))
                        && grown.contains(Point::new(actual.max_x, actual.max_y)))
                    {
                        return Err(format!("page {page}: stale child MBR for {child}"));
                    }
                    self.check_node(*child, Some(node.level - 1))?;
                }
            }
        }
        Ok(())
    }

    pub(crate) fn alloc(&mut self, node: Node<T>) -> PageId {
        self.pages.push(node);
        (self.pages.len() - 1) as PageId
    }

    pub(crate) fn bump_len(&mut self) {
        self.len += 1;
    }

    pub(crate) fn set_len(&mut self, len: usize) {
        self.len = len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fanout_from_page_size() {
        let t: RStarTree<Point> = RStarTree::new(DEFAULT_PAGE_SIZE);
        // (4096 - 16) / 40 = 102
        assert_eq!(t.max_entries(), 102);
        assert_eq!(t.min_entries(), 40);
        assert_eq!(t.height(), 1);
        assert!(t.is_empty());
    }

    #[test]
    #[should_panic]
    fn rejects_tiny_fanout() {
        let _: RStarTree<Point> = RStarTree::with_fanout(3, 1);
    }

    #[test]
    fn read_charges_stats_and_buffer() {
        let t: RStarTree<Point> = RStarTree::with_fanout(8, 3);
        let mut meter = IoMeter::default();
        t.read(0, Some(&meter));
        t.read(0, Some(&meter));
        t.read(0, None); // unmetered: charged to nobody
        assert_eq!(meter.snapshot().reads, 2);
        assert_eq!(meter.snapshot().faults, 2); // no buffer
        meter.set_buffer_pages(4);
        let before = meter.snapshot();
        t.read(0, Some(&meter));
        t.read(0, Some(&meter));
        let s = meter.snapshot().since(&before);
        assert_eq!(s.reads, 2);
        assert_eq!(s.faults, 1); // second read hits
    }

    /// Forks and same-shaped trees reuse page ids; one buffered meter must
    /// keep their frames apart.
    #[test]
    fn buffered_meter_never_hits_across_trees() {
        let pts: Vec<Point> = (0..40).map(|i| Point::new(i as f64, 0.0)).collect();
        let a = RStarTree::bulk_load_with_fanout(pts.clone(), 4, 2);
        let twin = RStarTree::bulk_load_with_fanout(pts, 4, 2);
        let fork = a.fork();
        let mut meter = IoMeter::default();
        meter.set_buffer_pages(16);
        for tree in [&a, &twin, &fork] {
            tree.read(tree.root, Some(&meter));
        }
        assert_eq!(meter.snapshot().faults, 3, "one cold read per tree");
        for tree in [&a, &twin, &fork] {
            tree.read(tree.root, Some(&meter));
        }
        assert_eq!(meter.snapshot().faults, 3, "each hits its own frame");
        assert_eq!(meter.snapshot().reads, 6);
    }

    /// The tree is shareable plain data; the meter is one thread's.
    #[test]
    fn tree_is_sync_and_meter_is_not() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<RStarTree<Point>>();
        assert_send_sync::<RStarTree<Rect>>();
        // that `IoMeter` is not `Sync` is the compile_fail doctest on it
        fn assert_send<T: Send>() {}
        assert_send::<IoMeter>();
    }

    #[test]
    #[cfg(feature = "sanitize-invariants")]
    fn structure_audit_fires_on_corrupted_mbr() {
        let pts: Vec<Point> = (0..40)
            .map(|i| Point::new(i as f64 * 3.0, (i * 7 % 13) as f64))
            .collect();
        let mut t = RStarTree::bulk_load_with_fanout(pts, 4, 2);
        assert!(t.height() >= 2, "fixture needs an inner level");
        t.audit_structure("intact fixture"); // clean tree passes

        // Shrink a root entry's envelope so it no longer contains its
        // subtree (lane corruption: the slot itself stays intact).
        let root = t.root;
        assert!(
            matches!(t.pages[root as usize].slots[0], Slot::Child(_)),
            "two-level root holds child slots"
        );
        t.pages[root as usize].mbrs[0] = Rect::new(1e6, 1e6, 1e6 + 1.0, 1e6 + 1.0);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.audit_structure("corrupted fixture")
        }))
        .expect_err("audit must fire on a corrupted MBR");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            msg.contains("sanitize-invariants"),
            "panic message should carry the sanitizer prefix, got: {msg}"
        );
    }
}
