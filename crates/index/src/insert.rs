//! R\*-tree insertion: ChooseSubtree, forced reinsertion, and the R\* split
//! (Beckmann et al., SIGMOD 1990 — reference \[1\] of the CONN paper).
//!
//! Forced reinsertion is implemented with a *deferred queue*: entries evicted
//! by OverflowTreatment are parked and re-inserted only after the current
//! descent fully unwinds. Re-entering the tree mid-descent (as a literal
//! reading of the R\* paper does) can split the root underneath an in-flight
//! recursion and corrupt ancestor MBRs; the deferred queue produces the same
//! tree-quality behaviour without the re-entrancy hazard.

#![expect(
    clippy::indexing_slicing,
    reason = "page ids and entry indices are tree-structural invariants (children exist, fanout within bounds) re-audited after every mutation by check_invariants / sanitize-invariants"
)]

use conn_geom::Rect;

use crate::node::{Mbr, Node, PageId, Slot};
use crate::tree::RStarTree;

/// Fraction of entries evicted by forced reinsertion (R\* recommends 30 %).
const REINSERT_FRAC: f64 = 0.3;

/// ChooseSubtree considers only this many least-area-enlargement candidates
/// when computing overlap enlargement at the leaf-parent level (the R\*
/// paper's CPU optimization for large fanouts).
const OVERLAP_CANDIDATES: usize = 32;

/// Upper bound on tree height used to size the per-level reinsert flags.
const MAX_LEVELS: usize = 64;

/// An entry waiting to be re-inserted at a given level.
struct Pending<T> {
    mbr: Rect,
    slot: Slot<T>,
    level: u32,
}

impl<T: Mbr + Clone> RStarTree<T> {
    /// Inserts one item (R\* algorithm, one forced-reinsert pass per level
    /// per insertion).
    pub fn insert(&mut self, item: T) {
        let mut reinserted = [false; MAX_LEVELS];
        let mut pending = vec![Pending {
            mbr: item.mbr(),
            slot: Slot::Item(item),
            level: 0,
        }];
        while let Some(p) = pending.pop() {
            self.insert_entry(p.mbr, p.slot, p.level, &mut reinserted, &mut pending);
        }
        self.bump_len();
        self.audit_structure("RStarTree::insert");
    }

    /// Inserts a raw slot at a given level through the full insertion
    /// machinery (used by deletion's condense-tree reattachment).
    pub(crate) fn insert_slot_at_level(&mut self, mbr: Rect, slot: Slot<T>, level: u32) {
        let mut reinserted = [false; MAX_LEVELS];
        let mut pending = vec![Pending { mbr, slot, level }];
        while let Some(p) = pending.pop() {
            self.insert_entry(p.mbr, p.slot, p.level, &mut reinserted, &mut pending);
        }
    }

    /// Top-level insertion of `entry` at `target_level`; grows the root on
    /// split.
    fn insert_entry(
        &mut self,
        mbr: Rect,
        slot: Slot<T>,
        target_level: u32,
        reinserted: &mut [bool; MAX_LEVELS],
        pending: &mut Vec<Pending<T>>,
    ) {
        if let Some((new_mbr, new_page)) =
            self.insert_rec(self.root, mbr, slot, target_level, reinserted, pending)
        {
            // Root split: grow the tree by one level.
            let old_root = self.root;
            let old_mbr = self.pages[old_root as usize].mbr();
            let new_level = self.pages[old_root as usize].level + 1;
            assert!((new_level as usize) < MAX_LEVELS, "tree too deep");
            let mut root = Node::new(new_level);
            root.push(old_mbr, Slot::Child(old_root));
            root.push(new_mbr, Slot::Child(new_page));
            self.root = self.alloc(root);
        }
    }

    /// Recursive descent. Returns `Some((mbr, page))` when this node split
    /// and the caller must register the new sibling.
    fn insert_rec(
        &mut self,
        page: PageId,
        mbr: Rect,
        slot: Slot<T>,
        target_level: u32,
        reinserted: &mut [bool; MAX_LEVELS],
        pending: &mut Vec<Pending<T>>,
    ) -> Option<(Rect, PageId)> {
        let level = self.pages[page as usize].level;
        if level == target_level {
            self.pages[page as usize].push(mbr, slot);
        } else {
            let idx = self.choose_subtree(page, &mbr);
            let child = match self.pages[page as usize].slots[idx] {
                Slot::Child(page) => page,
                #[expect(clippy::unreachable, reason = "page.level > 0 here")]
                Slot::Item(_) => unreachable!("item slot above the leaf level"),
            };
            let split = self.insert_rec(child, mbr, slot, target_level, reinserted, pending);
            // Refresh the child MBR from ground truth (reinsert eviction may
            // have shrunk the child).
            let child_mbr = self.pages[child as usize].mbr();
            self.pages[page as usize].mbrs[idx] = child_mbr;
            if let Some((sib_mbr, sib_page)) = split {
                self.pages[page as usize].push(sib_mbr, Slot::Child(sib_page));
            }
        }
        if self.pages[page as usize].len() > self.max_entries {
            return self.overflow(page, reinserted, pending);
        }
        None
    }

    /// R\* OverflowTreatment: first overflow on a level → forced reinsert
    /// (deferred); otherwise split.
    fn overflow(
        &mut self,
        page: PageId,
        reinserted: &mut [bool; MAX_LEVELS],
        pending: &mut Vec<Pending<T>>,
    ) -> Option<(Rect, PageId)> {
        let level = self.pages[page as usize].level as usize;
        if page != self.root && !reinserted[level] {
            reinserted[level] = true;
            self.evict_for_reinsert(page, pending);
            None
        } else {
            Some(self.split(page))
        }
    }

    /// Evicts the ~30 % of entries whose centers are farthest from the
    /// node's center onto the pending queue ("close reinsert": the nearest
    /// evicted entry is re-inserted first).
    fn evict_for_reinsert(&mut self, page: PageId, pending: &mut Vec<Pending<T>>) {
        let level = self.pages[page as usize].level;
        let center = self.pages[page as usize].mbr().center();
        let node = &mut self.pages[page as usize];
        let p = ((node.len() as f64 * REINSERT_FRAC).ceil() as usize).max(1);
        let mut keyed: Vec<(f64, Rect, Slot<T>)> = node
            .mbrs
            .drain(..)
            .zip(node.slots.drain(..))
            .map(|(r, s)| (r.center().dist_sq(center), r, s))
            .collect();
        keyed.sort_by(|a, b| a.0.total_cmp(&b.0));
        let evicted = keyed.split_off(keyed.len() - p);
        for (_, r, s) in keyed {
            node.push(r, s);
        }
        // pending is a stack: push farthest first so the nearest pops first
        for (_, mbr, slot) in evicted.into_iter().rev() {
            pending.push(Pending { mbr, slot, level });
        }
    }

    /// R\* ChooseSubtree: overlap-minimal child at the leaf-parent level,
    /// area-enlargement-minimal child above it.
    #[expect(clippy::expect_used, reason = "nodes hold ≥ min_entries ≥ 1")]
    fn choose_subtree(&self, page: PageId, mbr: &Rect) -> usize {
        let node = &self.pages[page as usize];
        debug_assert!(!node.is_leaf());
        // all decisions below read only the contiguous envelope lane
        let lane = &node.mbrs;
        let enlargement = |r: &Rect| r.union(mbr).area() - r.area();
        if node.level == 1 {
            // children are leaves → minimize overlap enlargement among the
            // OVERLAP_CANDIDATES least-area-enlargement entries
            let mut order: Vec<usize> = (0..lane.len()).collect();
            order.sort_by(|&a, &b| enlargement(&lane[a]).total_cmp(&enlargement(&lane[b])));
            order.truncate(OVERLAP_CANDIDATES);
            let overlap_delta = |idx: usize| -> f64 {
                let r = lane[idx];
                let grown = r.union(mbr);
                let mut delta = 0.0;
                for (j, o) in lane.iter().enumerate() {
                    if j != idx {
                        delta += grown.intersection_area(o) - r.intersection_area(o);
                    }
                }
                delta
            };
            *order
                .iter()
                .min_by(|&&a, &&b| {
                    overlap_delta(a)
                        .total_cmp(&overlap_delta(b))
                        .then(enlargement(&lane[a]).total_cmp(&enlargement(&lane[b])))
                        .then(lane[a].area().total_cmp(&lane[b].area()))
                })
                .expect("choose_subtree on empty node")
        } else {
            (0..lane.len())
                .min_by(|&a, &b| {
                    enlargement(&lane[a])
                        .total_cmp(&enlargement(&lane[b]))
                        .then(lane[a].area().total_cmp(&lane[b].area()))
                })
                .expect("choose_subtree on empty node")
        }
    }

    /// R\* split: choose the axis minimizing the margin sum over all
    /// distributions (both lower- and upper-bound sortings), then the
    /// distribution minimizing overlap (ties: total area). Keeps the first
    /// group in place and returns the new sibling.
    pub(crate) fn split(&mut self, page: PageId) -> (Rect, PageId) {
        let level = self.pages[page as usize].level;
        let mbrs = std::mem::take(&mut self.pages[page as usize].mbrs);
        let slots = std::mem::take(&mut self.pages[page as usize].slots);
        let m = self.min_entries;
        let total = slots.len();
        debug_assert!(total > self.max_entries);

        let sort_key = |r: &Rect, axis: usize, upper: bool| -> (f64, f64) {
            match (axis, upper) {
                (0, false) => (r.min_x, r.max_x),
                (0, true) => (r.max_x, r.min_x),
                (1, false) => (r.min_y, r.max_y),
                _ => (r.max_y, r.min_y),
            }
        };
        let orderings: Vec<(usize, Vec<usize>)> = [(0, false), (0, true), (1, false), (1, true)]
            .iter()
            .map(|&(axis, upper)| {
                let mut idx: Vec<usize> = (0..total).collect();
                idx.sort_by(|&a, &b| {
                    let ka = sort_key(&mbrs[a], axis, upper);
                    let kb = sort_key(&mbrs[b], axis, upper);
                    ka.0.total_cmp(&kb.0).then(ka.1.total_cmp(&kb.1))
                });
                (axis, idx)
            })
            .collect();

        // prefix[i] = mbr of order[..=i]; suffix[i] = mbr of order[i..]
        let group_mbrs = |order: &[usize]| -> (Vec<Rect>, Vec<Rect>) {
            let mut prefix = Vec::with_capacity(total);
            let mut acc = mbrs[order[0]];
            prefix.push(acc);
            for &i in &order[1..] {
                acc = acc.union(&mbrs[i]);
                prefix.push(acc);
            }
            #[expect(
                clippy::unwrap_used,
                reason = "an overflowing node has max_entries + 1 entries"
            )]
            let mut suffix = vec![mbrs[*order.last().unwrap()]; total];
            for k in (0..total - 1).rev() {
                suffix[k] = suffix[k + 1].union(&mbrs[order[k]]);
            }
            (prefix, suffix)
        };

        let mut axis_margin = [0.0f64; 2];
        for (axis, order) in &orderings {
            let (prefix, suffix) = group_mbrs(order);
            for k in m..=(total - m) {
                axis_margin[*axis] += prefix[k - 1].margin() + suffix[k].margin();
            }
        }
        let best_axis = if axis_margin[0] <= axis_margin[1] {
            0
        } else {
            1
        };

        let mut best: Option<(f64, f64, usize, usize)> = None; // (overlap, area, ordering idx, k)
        for (oi, (axis, order)) in orderings.iter().enumerate() {
            if *axis != best_axis {
                continue;
            }
            let (prefix, suffix) = group_mbrs(order);
            for k in m..=(total - m) {
                let (g1, g2) = (prefix[k - 1], suffix[k]);
                let overlap = g1.intersection_area(&g2);
                let area = g1.area() + g2.area();
                let better = match &best {
                    None => true,
                    Some((bo, ba, _, _)) => overlap < *bo || (overlap == *bo && area < *ba),
                };
                if better {
                    best = Some((overlap, area, oi, k));
                }
            }
        }
        #[expect(
            clippy::expect_used,
            reason = "the distribution loop always runs at least once"
        )]
        let (_, _, oi, k) = best.expect("split found no distribution");
        let order = &orderings[oi].1;

        let mut taken = vec![false; total];
        for &i in &order[..k] {
            taken[i] = true;
        }
        let node = &mut self.pages[page as usize];
        node.mbrs.reserve(k);
        node.slots.reserve(k);
        let mut sibling = Node::new(level);
        sibling.mbrs.reserve(total - k);
        sibling.slots.reserve(total - k);
        for (i, (r, s)) in mbrs.into_iter().zip(slots).enumerate() {
            if taken[i] {
                node.push(r, s);
            } else {
                sibling.push(r, s);
            }
        }
        let sib_mbr = sibling.mbr();
        let sib_page = self.alloc(sibling);
        (sib_mbr, sib_page)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conn_geom::Point;

    fn grid_points(n: usize) -> Vec<Point> {
        // deterministic but scattered: low-discrepancy-ish lattice
        (0..n)
            .map(|i| {
                let x = (i as f64 * 137.508) % 1000.0;
                let y = (i as f64 * 57.295) % 1000.0;
                Point::new(x, y)
            })
            .collect()
    }

    #[test]
    fn insert_grows_and_keeps_invariants() {
        let mut t: RStarTree<Point> = RStarTree::with_fanout(8, 3);
        for (i, p) in grid_points(500).into_iter().enumerate() {
            t.insert(p);
            assert_eq!(t.len(), i + 1);
            if i % 50 == 0 {
                t.check_invariants().unwrap();
            }
        }
        t.check_invariants().unwrap();
        assert!(t.height() >= 3, "500 items at fanout 8 must be deep");
    }

    #[test]
    fn all_items_remain_findable() {
        let mut t: RStarTree<Point> = RStarTree::with_fanout(8, 3);
        let pts = grid_points(300);
        for p in &pts {
            t.insert(*p);
        }
        let stored: Vec<Point> = t.iter_items().copied().collect();
        assert_eq!(stored.len(), pts.len());
        for p in &pts {
            assert!(stored.iter().any(|s| s.dist(*p) == 0.0), "lost point {p}");
        }
    }

    #[test]
    fn duplicate_points_are_kept() {
        let mut t: RStarTree<Point> = RStarTree::with_fanout(4, 2);
        for _ in 0..50 {
            t.insert(Point::new(5.0, 5.0));
        }
        assert_eq!(t.len(), 50);
        t.check_invariants().unwrap();
    }

    #[test]
    fn rect_items_work_too() {
        let mut t: RStarTree<Rect> = RStarTree::with_fanout(8, 3);
        for (i, p) in grid_points(200).into_iter().enumerate() {
            let w = 1.0 + (i % 7) as f64;
            t.insert(Rect::new(p.x, p.y, p.x + w, p.y + 2.0));
        }
        t.check_invariants().unwrap();
        assert_eq!(t.len(), 200);
    }

    #[test]
    fn clustered_insertion_order_still_valid() {
        // pathological order: sorted along a diagonal, stresses reinsertion
        let mut t: RStarTree<Point> = RStarTree::with_fanout(6, 2);
        for i in 0..400 {
            let v = i as f64;
            t.insert(Point::new(v, v * 0.5));
        }
        t.check_invariants().unwrap();
        assert_eq!(t.len(), 400);
    }
}
