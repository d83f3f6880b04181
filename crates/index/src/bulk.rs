//! STR bulk loading (Leutenegger et al.): sort-tile-recursive packing.
//!
//! The experiment datasets (up to 1.3 M points at paper scale) are loaded
//! once and never updated, so bulk loading is the construction path the
//! benchmark harness uses; incremental insertion remains available for
//! dynamic workloads and is exercised by the structural tests.

use conn_geom::Rect;

use crate::node::{Mbr, Node, Slot};
use crate::tree::RStarTree;

impl<T: Mbr + Clone> RStarTree<T> {
    /// Builds a tree from `items` using STR packing with the fanout implied
    /// by `page_size`.
    pub fn bulk_load(items: Vec<T>, page_size: usize) -> Self {
        let mut tree = Self::new(page_size);
        tree.bulk_fill(items);
        tree
    }

    /// Builds a tree from `items` with an explicit fanout.
    pub fn bulk_load_with_fanout(items: Vec<T>, max_entries: usize, min_entries: usize) -> Self {
        let mut tree = Self::with_fanout(max_entries, min_entries);
        tree.bulk_fill(items);
        tree
    }

    fn bulk_fill(&mut self, items: Vec<T>) {
        assert!(self.is_empty(), "bulk load into non-empty tree");
        if items.is_empty() {
            return;
        }
        let n = items.len();
        // Pack leaves: STR tiles on x, then fills runs on y.
        let cap = self.max_entries;
        let leaf_entries: Vec<(Rect, Slot<T>)> = items
            .into_iter()
            .map(|it| (it.mbr(), Slot::Item(it)))
            .collect();
        let mut level_entries = self.pack_level(leaf_entries, 0, cap);
        let mut level = 1;
        while level_entries.len() > 1 {
            level_entries = self.pack_level(level_entries, level, cap);
            level += 1;
        }
        #[expect(
            clippy::expect_used,
            reason = "the loop above runs until exactly one entry is left, and bulk_fill is never called with an empty item set"
        )]
        let root = level_entries.pop().expect("non-empty packing");
        match root {
            (_, Slot::Child(page)) => self.root = page,
            #[expect(clippy::unreachable, reason = "the final pack level is nodes")]
            (_, Slot::Item(_)) => unreachable!("packing always produces a node"),
        }
        self.set_len(n);
        self.audit_structure("RStarTree::bulk_load");
    }

    /// Packs `entries` into nodes of `level`, returning parent entries.
    ///
    /// Sizes within a slice are distributed *evenly* (instead of greedy
    /// `cap`-sized runs) so no node falls below the minimum fill — greedy
    /// packing leaves an underfull tail node whenever `slice_len % cap`
    /// is small but non-zero.
    fn pack_level(
        &mut self,
        mut entries: Vec<(Rect, Slot<T>)>,
        level: u32,
        cap: usize,
    ) -> Vec<(Rect, Slot<T>)> {
        let n = entries.len();
        let fill = |node: &mut Node<T>, drained: std::vec::Drain<'_, (Rect, Slot<T>)>| {
            for (r, s) in drained {
                node.push(r, s);
            }
        };
        if n <= cap {
            let mut node = Node::new(level);
            fill(&mut node, entries.drain(..));
            let mbr = node.mbr();
            let page = self.alloc(node);
            return vec![(mbr, Slot::Child(page))];
        }
        let node_count = n.div_ceil(cap);
        let slice_count = (node_count as f64).sqrt().ceil() as usize;

        entries.sort_by(|a, b| a.0.center().x.total_cmp(&b.0.center().x));
        let mut parents = Vec::with_capacity(node_count);
        let mut rest = entries;
        for chunk in even_chunks(n, slice_count) {
            let mut slice: Vec<(Rect, Slot<T>)> = rest.drain(..chunk).collect();
            slice.sort_by(|a, b| a.0.center().y.total_cmp(&b.0.center().y));
            let slice_len = slice.len();
            for node_chunk in even_chunks(slice_len, slice_len.div_ceil(cap)) {
                let mut node = Node::new(level);
                fill(&mut node, slice.drain(..node_chunk));
                let mbr = node.mbr();
                let page = self.alloc(node);
                parents.push((mbr, Slot::Child(page)));
            }
        }
        parents
    }
}

/// Splits `n` into `parts` chunk sizes that differ by at most one.
fn even_chunks(n: usize, parts: usize) -> Vec<usize> {
    debug_assert!(parts >= 1 && parts <= n);
    let base = n / parts;
    let extra = n % parts;
    (0..parts)
        .map(|i| if i < extra { base + 1 } else { base })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use conn_geom::{Point, Rect};

    fn pts(n: usize) -> Vec<Point> {
        (0..n)
            .map(|i| Point::new((i as f64 * 733.0) % 997.0, (i as f64 * 131.0) % 883.0))
            .collect()
    }

    #[test]
    fn bulk_load_small_and_large() {
        for n in [1usize, 5, 100, 2000] {
            let t = RStarTree::bulk_load_with_fanout(pts(n), 16, 6);
            assert_eq!(t.len(), n, "n = {n}");
            t.check_invariants()
                .unwrap_or_else(|e| panic!("n = {n}: {e}"));
            assert_eq!(t.iter_items().count(), n);
        }
    }

    #[test]
    fn bulk_load_empty() {
        let t: RStarTree<Point> = RStarTree::bulk_load(Vec::new(), 4096);
        assert!(t.is_empty());
        assert_eq!(t.height(), 1);
    }

    #[test]
    fn bulk_load_is_shallower_than_insertion() {
        let items = pts(5000);
        let bulk = RStarTree::bulk_load_with_fanout(items.clone(), 16, 6);
        let mut incr: RStarTree<Point> = RStarTree::with_fanout(16, 6);
        for p in items {
            incr.insert(p);
        }
        assert!(bulk.height() <= incr.height());
        assert!(bulk.num_pages() <= incr.num_pages());
    }

    #[test]
    fn bulk_load_rect_items() {
        let rects: Vec<Rect> = pts(800)
            .into_iter()
            .map(|p| Rect::new(p.x, p.y, p.x + 3.0, p.y + 1.0))
            .collect();
        let t = RStarTree::bulk_load_with_fanout(rects, 32, 12);
        t.check_invariants().unwrap();
        assert_eq!(t.len(), 800);
    }
}
