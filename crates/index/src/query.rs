//! Query traversals: incremental best-first nearest-neighbor streaming,
//! range search, and kNN.
//!
//! [`NearestIter`] is the access pattern every CONN algorithm is built on:
//! Algorithm 4 streams *data points* in ascending `mindist` to the query
//! segment, and Algorithm 1 (IOR) streams *obstacles* the same way. Best-
//! first traversal (Hjaltason & Samet) is I/O-optimal: it reads exactly the
//! nodes whose `mindist` is below the final stopping distance.

#![expect(
    clippy::indexing_slicing,
    reason = "page ids and entry indices are tree-structural invariants (children exist, fanout within bounds) re-audited after every mutation by check_invariants / sanitize-invariants"
)]

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use conn_geom::{OrdF64, Point, Rect, Segment};

use crate::node::{Mbr, PageId, Slot};
use crate::stats::IoMeter;
use crate::tree::RStarTree;

/// A query shape that can lower-bound its distance to an MBR.
pub trait DistShape {
    /// `mindist(self, r)` — must lower-bound the distance from the shape to
    /// anything contained in `r`.
    fn dist_rect(&self, r: &Rect) -> f64;
}

impl DistShape for Point {
    #[inline]
    fn dist_rect(&self, r: &Rect) -> f64 {
        r.mindist_point(*self)
    }
}

impl DistShape for Segment {
    #[inline]
    fn dist_rect(&self, r: &Rect) -> f64 {
        r.mindist_segment(self)
    }
}

enum HeapItem<T> {
    Node(PageId),
    Item(T),
}

struct HeapElem<T> {
    key: OrdF64,
    seq: u64,
    item: HeapItem<T>,
}

impl<T> PartialEq for HeapElem<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.seq == other.seq
    }
}
impl<T> Eq for HeapElem<T> {}
impl<T> PartialOrd for HeapElem<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for HeapElem<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // reversed: BinaryHeap is a max-heap, we need the smallest key first
        other
            .key
            .cmp(&self.key)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Incremental nearest-neighbor stream over an [`RStarTree`].
///
/// Yields `(item, mindist)` pairs in ascending distance order; lazily reads
/// tree pages as the frontier advances, so consuming only a prefix of the
/// stream only pays for the pages that prefix needed. Page reads are
/// charged to the meter the stream was opened with, if any.
pub struct NearestIter<'a, T, Q: DistShape> {
    tree: &'a RStarTree<T>,
    meter: Option<&'a IoMeter>,
    query: Q,
    heap: BinaryHeap<HeapElem<T>>,
    seq: u64,
}

impl<'a, T: Mbr + Clone, Q: DistShape> NearestIter<'a, T, Q> {
    fn new(tree: &'a RStarTree<T>, query: Q, meter: Option<&'a IoMeter>) -> Self {
        let mut it = NearestIter {
            tree,
            meter,
            query,
            heap: BinaryHeap::new(),
            seq: 0,
        };
        if !tree.is_empty() {
            let root_mbr = tree.pages[tree.root as usize].mbr();
            let key = OrdF64::new(it.query.dist_rect(&root_mbr));
            it.push(key, HeapItem::Node(tree.root));
        }
        it
    }

    fn push(&mut self, key: OrdF64, item: HeapItem<T>) {
        self.heap.push(HeapElem {
            key,
            seq: self.seq,
            item,
        });
        self.seq += 1;
    }

    /// The `mindist` of the next element without consuming it: a lower bound
    /// on everything not yet returned. `None` when exhausted.
    pub fn peek_dist(&self) -> Option<f64> {
        self.heap.peek().map(|e| e.key.0)
    }
}

impl<'a, T: Mbr + Clone, Q: DistShape> Iterator for NearestIter<'a, T, Q> {
    type Item = (T, f64);

    fn next(&mut self) -> Option<(T, f64)> {
        while let Some(HeapElem { key, item, .. }) = self.heap.pop() {
            match item {
                HeapItem::Item(it) => return Some((it, key.0)),
                HeapItem::Node(page) => {
                    // `tree` is a copy of the &'a reference, so `node`
                    // outlives the &mut self borrows of push() below: the
                    // expansion streams the contiguous envelope lane
                    // straight onto the heap, no intermediate buffer
                    let tree = self.tree;
                    let node = tree.read(page, self.meter);
                    for (mbr, slot) in node.mbrs.iter().zip(&node.slots) {
                        let d = OrdF64::new(self.query.dist_rect(mbr));
                        match slot {
                            Slot::Child(page) => self.push(d, HeapItem::Node(*page)),
                            Slot::Item(it) => self.push(d, HeapItem::Item(it.clone())),
                        }
                    }
                }
            }
        }
        None
    }
}

impl<T: Mbr + Clone> RStarTree<T> {
    /// Incremental nearest-neighbor stream ordered by `mindist` to `query`,
    /// unmetered: the same traversal with no page accounting attached.
    pub fn nearest_iter<Q: DistShape>(&self, query: Q) -> NearestIter<'_, T, Q> {
        NearestIter::new(self, query, None)
    }

    /// [`RStarTree::nearest_iter`] charging every page it reads to `meter`.
    pub fn nearest_iter_metered<'a, Q: DistShape>(
        &'a self,
        query: Q,
        meter: &'a IoMeter,
    ) -> NearestIter<'a, T, Q> {
        NearestIter::new(self, query, Some(meter))
    }

    /// The `k` nearest items to `query` with their distances (unmetered).
    pub fn knn<Q: DistShape>(&self, query: Q, k: usize) -> Vec<(T, f64)> {
        self.nearest_iter(query).take(k).collect()
    }

    /// All items whose MBR intersects `window` (unmetered).
    pub fn range(&self, window: &Rect) -> Vec<T> {
        self.range_with(window, None)
    }

    /// [`RStarTree::range`] charging every page it reads to `meter`.
    pub fn range_metered(&self, window: &Rect, meter: &IoMeter) -> Vec<T> {
        self.range_with(window, Some(meter))
    }

    fn range_with(&self, window: &Rect, meter: Option<&IoMeter>) -> Vec<T> {
        let mut out = Vec::new();
        if self.is_empty() {
            return out;
        }
        let mut stack = vec![self.root];
        while let Some(page) = stack.pop() {
            let node = self.read(page, meter);
            let mut child_pages = Vec::new();
            for (mbr, slot) in node.mbrs.iter().zip(&node.slots) {
                if mbr.intersects(window) {
                    match slot {
                        Slot::Child(page) => child_pages.push(*page),
                        Slot::Item(it) => out.push(it.clone()),
                    }
                }
            }
            stack.extend(child_pages);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(n: usize) -> Vec<Point> {
        (0..n)
            .map(|i| Point::new((i as f64 * 733.0) % 997.0, (i as f64 * 131.0) % 883.0))
            .collect()
    }

    fn build(n: usize) -> (RStarTree<Point>, Vec<Point>) {
        let items = pts(n);
        (
            RStarTree::bulk_load_with_fanout(items.clone(), 16, 6),
            items,
        )
    }

    #[test]
    fn nearest_stream_is_sorted_and_complete() {
        let (t, items) = build(500);
        let q = Point::new(500.0, 400.0);
        let got: Vec<(Point, f64)> = t.nearest_iter(q).collect();
        assert_eq!(got.len(), items.len());
        for w in got.windows(2) {
            assert!(w[0].1 <= w[1].1 + 1e-12, "stream out of order");
        }
        // distances are true euclidean distances
        for (p, d) in &got {
            assert!((p.dist(q) - d).abs() < 1e-9);
        }
    }

    #[test]
    fn knn_matches_linear_scan() {
        let (t, items) = build(400);
        let q = Point::new(123.0, 456.0);
        let got = t.knn(q, 10);
        let mut want: Vec<f64> = items.iter().map(|p| p.dist(q)).collect();
        want.sort_by(f64::total_cmp);
        for (i, (_, d)) in got.iter().enumerate() {
            assert!((d - want[i]).abs() < 1e-9, "k = {i}");
        }
    }

    #[test]
    fn nearest_by_segment_orders_by_segment_distance() {
        let (t, items) = build(300);
        let q = Segment::new(Point::new(0.0, 0.0), Point::new(900.0, 100.0));
        let got: Vec<(Point, f64)> = t.nearest_iter(q).collect();
        assert_eq!(got.len(), items.len());
        for (p, d) in &got {
            assert!((q.dist_to_point(*p) - d).abs() < 1e-9);
        }
        for w in got.windows(2) {
            assert!(w[0].1 <= w[1].1 + 1e-12);
        }
    }

    #[test]
    fn peek_dist_lower_bounds_everything_left() {
        let (t, _) = build(200);
        let mut it = t.nearest_iter(Point::new(10.0, 10.0));
        let mut prev = 0.0;
        for _ in 0..50 {
            let peek = it.peek_dist().unwrap();
            let (_, d) = it.next().unwrap();
            assert!(peek <= d + 1e-12);
            assert!(prev <= d + 1e-12);
            prev = d;
        }
    }

    #[test]
    fn range_query_matches_filter() {
        let (t, items) = build(400);
        let window = Rect::new(100.0, 100.0, 400.0, 500.0);
        let meter = IoMeter::default();
        let mut got: Vec<Point> = t.range_metered(&window, &meter);
        assert!(meter.snapshot().reads > 0);
        let mut want: Vec<Point> = items.into_iter().filter(|p| window.contains(*p)).collect();
        let by_xy = |a: &Point, b: &Point| a.x.total_cmp(&b.x).then(a.y.total_cmp(&b.y));
        got.sort_by(by_xy);
        want.sort_by(by_xy);
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g, w);
        }
        assert_eq!(t.range(&window).len(), want.len(), "unmetered twin agrees");
    }

    #[test]
    fn empty_tree_queries() {
        let t: RStarTree<Point> = RStarTree::with_fanout(8, 3);
        assert!(t.nearest_iter(Point::new(0.0, 0.0)).next().is_none());
        assert!(t.knn(Point::new(0.0, 0.0), 5).is_empty());
        let meter = IoMeter::default();
        assert!(t
            .nearest_iter_metered(Point::new(0.0, 0.0), &meter)
            .next()
            .is_none());
        assert!(t
            .range_metered(&Rect::new(0.0, 0.0, 10.0, 10.0), &meter)
            .is_empty());
        assert!(t.range(&Rect::new(0.0, 0.0, 10.0, 10.0)).is_empty());
        assert_eq!(
            meter.snapshot().reads,
            0,
            "an empty tree has no page to read"
        );
    }

    /// The reads a metered prefix of the stream charges.
    fn reads_of(t: &RStarTree<Point>, meter: &IoMeter, take: usize) -> crate::StatsSnapshot {
        let before = meter.snapshot();
        let q = Point::new(500.0, 500.0);
        let _: Vec<_> = t.nearest_iter_metered(q, meter).take(take).collect();
        meter.snapshot().since(&before)
    }

    #[test]
    fn partial_consumption_reads_fewer_pages() {
        let (t, _) = build(2000);
        let meter = IoMeter::default();
        let partial = reads_of(&t, &meter, 5).reads;
        let full = reads_of(&t, &meter, usize::MAX).reads;
        assert!(partial < full / 2, "partial {partial} vs full {full}");
    }

    #[test]
    fn metered_and_unmetered_streams_agree() {
        let (t, _) = build(700);
        let q = Segment::new(Point::new(0.0, 0.0), Point::new(900.0, 100.0));
        let meter = IoMeter::default();
        let metered: Vec<(Point, f64)> = t.nearest_iter_metered(q, &meter).collect();
        let plain: Vec<(Point, f64)> = t.nearest_iter(q).collect();
        assert_eq!(metered, plain);
        // a full drain reads each reachable page once, and only metered
        // streams charge
        let reads = meter.snapshot().reads;
        assert!(reads > 1 && reads <= t.num_pages() as u64, "{reads} reads");
    }

    #[test]
    fn buffer_reduces_faults_on_repeat_queries() {
        let (t, _) = build(2000);
        let mut meter = IoMeter::default();
        let unbuffered = reads_of(&t, &meter, 50);
        assert_eq!(
            unbuffered.faults, unbuffered.reads,
            "capacity 0: all faults"
        );
        meter.set_buffer_pages(t.num_pages() / 2);
        let cold = reads_of(&t, &meter, 50);
        let warm = reads_of(&t, &meter, 50);
        assert_eq!(cold.reads, unbuffered.reads, "reads ignore the buffer");
        assert_eq!(cold.reads, warm.reads);
        assert!(warm.faults < cold.faults, "warm {warm:?} vs cold {cold:?}");
        meter.clear_buffer();
        assert_eq!(reads_of(&t, &meter, 50), cold, "a cleared buffer is cold");
    }
}
