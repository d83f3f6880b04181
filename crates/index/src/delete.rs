//! Deletion with CondenseTree (Guttman 1984, as adapted for the R\*-tree).
//!
//! The CONN experiments never delete, but a production index must: find the
//! leaf holding the item, remove it, and if the leaf underflows, dissolve it
//! and re-insert the orphaned entries at their original levels; shrink the
//! root when it degenerates to a single child.

#![expect(
    clippy::indexing_slicing,
    reason = "page ids and entry indices are tree-structural invariants (children exist, fanout within bounds) re-audited after every mutation by check_invariants / sanitize-invariants"
)]

use conn_geom::Rect;

use crate::node::{Mbr, PageId, Slot};
use crate::tree::RStarTree;

impl<T: Mbr + Clone> RStarTree<T> {
    /// Removes one item matching `predicate` whose MBR intersects `probe`
    /// (callers usually pass the exact MBR of the item to delete).
    ///
    /// Returns the removed item, or `None` if nothing matched. When several
    /// items match, an arbitrary one is removed.
    pub fn delete<F>(&mut self, probe: &Rect, predicate: F) -> Option<T>
    where
        F: Fn(&T) -> bool,
    {
        let mut orphans: Vec<(Rect, Slot<T>, u32)> = Vec::new();
        let removed = self.delete_rec(self.root, probe, &predicate, &mut orphans)?;

        // re-insert orphaned slots at their original levels
        for (mbr, slot, level) in orphans {
            self.reattach(mbr, slot, level);
        }

        // shrink a degenerate root (single child, non-leaf)
        loop {
            let root = &self.pages[self.root as usize];
            if root.is_leaf() || root.len() != 1 {
                break;
            }
            let child = match root.slots[0] {
                Slot::Child(page) => page,
                #[expect(clippy::unreachable, reason = "root.level > 0 here")]
                Slot::Item(_) => unreachable!("item in non-leaf root"),
            };
            self.root = child;
        }

        self.dec_len();
        self.audit_structure("RStarTree::delete");
        Some(removed)
    }

    /// Convenience wrapper: deletes by exact MBR equality.
    pub fn delete_by_mbr(&mut self, mbr: &Rect) -> Option<T> {
        let target = *mbr;
        self.delete(mbr, move |item| {
            let m = item.mbr();
            (m.min_x - target.min_x).abs() < 1e-12
                && (m.min_y - target.min_y).abs() < 1e-12
                && (m.max_x - target.max_x).abs() < 1e-12
                && (m.max_y - target.max_y).abs() < 1e-12
        })
    }

    fn delete_rec<F>(
        &mut self,
        page: PageId,
        probe: &Rect,
        predicate: &F,
        orphans: &mut Vec<(Rect, Slot<T>, u32)>,
    ) -> Option<T>
    where
        F: Fn(&T) -> bool,
    {
        if self.pages[page as usize].is_leaf() {
            let node = &mut self.pages[page as usize];
            // the envelope lane pre-filters; the payload is only touched
            // for slots whose cached MBR intersects the probe
            let idx = node
                .mbrs
                .iter()
                .zip(&node.slots)
                .position(|(mbr, slot)| match slot {
                    Slot::Item(item) => mbr.intersects(probe) && predicate(item),
                    Slot::Child(_) => false,
                })?;
            node.mbrs.swap_remove(idx);
            #[expect(
                clippy::unreachable,
                reason = "idx came from the Item-only position() match right above"
            )]
            let Slot::Item(item) = node.slots.swap_remove(idx) else {
                unreachable!("position() matched an item");
            };
            return Some(item);
        }
        // search every child whose MBR intersects the probe
        let candidates: Vec<(usize, PageId)> = self.pages[page as usize]
            .mbrs
            .iter()
            .zip(&self.pages[page as usize].slots)
            .enumerate()
            .filter_map(|(i, (mbr, slot))| match slot {
                Slot::Child(page) if mbr.intersects(probe) => Some((i, *page)),
                _ => None,
            })
            .collect();
        for (idx, child) in candidates {
            let Some(item) = self.delete_rec(child, probe, predicate, orphans) else {
                continue;
            };
            // condense: dissolve an underfull child, else refresh its MBR
            let child_len = self.pages[child as usize].len();
            if child_len < self.min_entries {
                let level = self.pages[child as usize].level;
                let rects = std::mem::take(&mut self.pages[child as usize].mbrs);
                let slots = std::mem::take(&mut self.pages[child as usize].slots);
                orphans.extend(rects.into_iter().zip(slots).map(|(r, s)| (r, s, level)));
                self.pages[page as usize].mbrs.remove(idx);
                self.pages[page as usize].slots.remove(idx);
            } else {
                let mbr = self.pages[child as usize].mbr();
                self.pages[page as usize].mbrs[idx] = mbr;
            }
            return Some(item);
        }
        None
    }

    /// Re-attaches a condensed slot at its original level. If the tree has
    /// shrunk below that level in the meantime, the orphaned subtree is
    /// dissolved recursively and its pieces re-attached where they fit.
    fn reattach(&mut self, mbr: Rect, slot: Slot<T>, level: u32) {
        let root_level = self.pages[self.root as usize].level;
        if level > root_level {
            match slot {
                #[expect(clippy::unreachable, reason = "level > root_level ≥ 0")]
                Slot::Item(_) => unreachable!("items live at level 0 ≤ root level"),
                Slot::Child(page) => {
                    let inner_level = self.pages[page as usize].level;
                    let rects = std::mem::take(&mut self.pages[page as usize].mbrs);
                    let slots = std::mem::take(&mut self.pages[page as usize].slots);
                    for (r, s) in rects.into_iter().zip(slots) {
                        self.reattach(r, s, inner_level);
                    }
                }
            }
            return;
        }
        let target = if matches!(slot, Slot::Item(_)) {
            0
        } else {
            level
        };
        self.insert_slot_at_level(mbr, slot, target);
    }

    fn dec_len(&mut self) {
        let l = self.len();
        self.set_len(l - 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conn_geom::Point;

    fn pts(n: usize) -> Vec<Point> {
        (0..n)
            .map(|i| Point::new((i as f64 * 733.0) % 997.0, (i as f64 * 131.0) % 883.0))
            .collect()
    }

    #[test]
    fn delete_removes_exactly_one() {
        let items = pts(200);
        let mut t = RStarTree::bulk_load_with_fanout(items.clone(), 8, 3);
        let victim = items[77];
        let removed = t.delete_by_mbr(&Rect::from_point(victim)).unwrap();
        assert_eq!(removed, victim);
        assert_eq!(t.len(), 199);
        t.check_invariants().unwrap();
        assert!(t.delete_by_mbr(&Rect::from_point(victim)).is_none());
    }

    #[test]
    fn delete_everything_one_by_one() {
        let items = pts(150);
        let mut t = RStarTree::bulk_load_with_fanout(items.clone(), 6, 2);
        for (i, p) in items.iter().enumerate() {
            let got = t.delete_by_mbr(&Rect::from_point(*p));
            assert!(got.is_some(), "item {i} not found");
            t.check_invariants()
                .unwrap_or_else(|e| panic!("after {i}: {e}"));
        }
        assert!(t.is_empty());
        assert_eq!(t.iter_items().count(), 0);
    }

    #[test]
    fn delete_then_query_consistency() {
        let items = pts(300);
        let mut t = RStarTree::bulk_load_with_fanout(items.clone(), 10, 4);
        // delete every third item
        let mut remaining = Vec::new();
        for (i, p) in items.iter().enumerate() {
            if i % 3 == 0 {
                assert!(t.delete_by_mbr(&Rect::from_point(*p)).is_some());
            } else {
                remaining.push(*p);
            }
        }
        assert_eq!(t.len(), remaining.len());
        t.check_invariants().unwrap();
        // knn over the survivors matches a linear scan
        let q = Point::new(450.0, 450.0);
        let got = t.knn(q, 12);
        let mut want: Vec<f64> = remaining.iter().map(|p| p.dist(q)).collect();
        want.sort_by(f64::total_cmp);
        for (i, (_, d)) in got.iter().enumerate() {
            assert!((d - want[i]).abs() < 1e-9, "rank {i}");
        }
    }

    #[test]
    fn delete_with_predicate() {
        let mut t: RStarTree<Point> = RStarTree::with_fanout(6, 2);
        for p in pts(50) {
            t.insert(p);
        }
        let probe = Rect::new(0.0, 0.0, 500.0, 900.0);
        let removed = t.delete(&probe, |p| p.x < 500.0).unwrap();
        assert!(removed.x < 500.0);
        assert_eq!(t.len(), 49);
    }

    #[test]
    fn delete_from_inserted_tree_with_deep_underflow() {
        // small fanout forces underflow cascades
        let mut t: RStarTree<Point> = RStarTree::with_fanout(4, 2);
        let items = pts(120);
        for p in &items {
            t.insert(*p);
        }
        for p in items.iter().take(110) {
            assert!(t.delete_by_mbr(&Rect::from_point(*p)).is_some());
            t.check_invariants().unwrap();
        }
        assert_eq!(t.len(), 10);
        for p in items.iter().skip(110) {
            assert!(
                t.iter_items().any(|s| s.dist(*p) == 0.0),
                "survivor lost: {p}"
            );
        }
    }
}
