//! Tree nodes and the item trait.
//!
//! # Storage layout: envelope/payload split
//!
//! A node stores its slots as two parallel lanes instead of one array of
//! tagged structs:
//!
//! * `mbrs: Vec<Rect>` — the **hot** lane: one navigation envelope per
//!   slot (the child subtree's bounding rectangle on inner levels, the
//!   item's cached MBR on leaves). Every traversal decision — `mindist`
//!   ordering, window intersection, subtree choice — reads only this lane,
//!   a contiguous run of 32-byte rectangles.
//! * `slots: Vec<Slot<T>>` — the **cold** lane: the child page id or the
//!   item payload, touched only after the envelope test passes.
//!
//! The split keeps payload bytes out of the cache lines the envelope scan
//! streams through, and it caches item MBRs at insertion time instead of
//! recomputing them from the payload on every comparison. Slots are
//! addressed by `u32`-sized indices (`PageId` for the node, a lane index
//! within it), which is the layout a page image serializes verbatim.

use conn_geom::Rect;

/// Index of a node in the simulated page store.
pub(crate) type PageId = u32;

/// Anything that can live in the tree: must expose a minimum bounding
/// rectangle (a point item returns a degenerate rectangle).
pub trait Mbr {
    /// Minimum bounding rectangle of the item.
    fn mbr(&self) -> Rect;
}

impl Mbr for Rect {
    #[inline]
    fn mbr(&self) -> Rect {
        *self
    }
}

impl Mbr for conn_geom::Point {
    #[inline]
    fn mbr(&self) -> Rect {
        Rect::from_point(*self)
    }
}

/// The cold half of one node slot: a child-node pointer (inner levels) or a
/// data item (leaf level). The slot's navigation envelope lives in the
/// node's parallel `mbrs` lane.
#[derive(Debug, Clone)]
pub(crate) enum Slot<T> {
    /// Pointer to a child node one level below.
    Child(PageId),
    /// A data item stored at the leaf level.
    Item(T),
}

/// A tree node occupying one simulated disk page; see the module docs for
/// the two-lane layout.
#[derive(Debug, Clone)]
pub(crate) struct Node<T> {
    /// 0 for leaves; parents of leaves are level 1, and so on up to the root.
    pub(crate) level: u32,
    /// Hot lane: navigation envelopes, parallel to `slots`.
    pub(crate) mbrs: Vec<Rect>,
    /// Cold lane: payloads, parallel to `mbrs`.
    pub(crate) slots: Vec<Slot<T>>,
}

impl<T: Mbr> Node<T> {
    /// An empty node at `level`.
    pub(crate) fn new(level: u32) -> Self {
        Node {
            level,
            mbrs: Vec::new(),
            slots: Vec::new(),
        }
    }

    /// Number of occupied slots.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        debug_assert_eq!(self.mbrs.len(), self.slots.len());
        self.slots.len()
    }

    /// True for level-0 (item-holding) nodes.
    #[inline]
    pub(crate) fn is_leaf(&self) -> bool {
        self.level == 0
    }

    /// Appends a slot with its envelope.
    #[inline]
    pub(crate) fn push(&mut self, mbr: Rect, slot: Slot<T>) {
        self.mbrs.push(mbr);
        self.slots.push(slot);
    }

    /// Bounding rectangle of all slots (callers guarantee non-empty nodes
    /// everywhere except a brand-new empty root).
    pub(crate) fn mbr(&self) -> Rect {
        let mut it = self.mbrs.iter();
        let first = it
            .next()
            .copied()
            .unwrap_or_else(|| Rect::new(0.0, 0.0, 0.0, 0.0));
        it.fold(first, |acc, r| acc.union(r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conn_geom::Point;

    #[test]
    fn lanes_stay_parallel() {
        let mut n: Node<Point> = Node::new(0);
        let p = Point::new(1.0, 2.0);
        n.push(p.mbr(), Slot::Item(p));
        assert_eq!(n.len(), 1);
        assert_eq!(n.mbrs[0], Rect::new(1.0, 2.0, 1.0, 2.0));
        let mut inner: Node<Point> = Node::new(1);
        inner.push(Rect::new(0.0, 0.0, 5.0, 5.0), Slot::Child(7));
        assert_eq!(inner.mbrs[0].area(), 25.0);
        assert!(!inner.is_leaf());
    }

    #[test]
    fn node_mbr_unions_envelope_lane() {
        let mut n: Node<Point> = Node::new(0);
        for p in [Point::new(1.0, 1.0), Point::new(4.0, 9.0)] {
            n.push(p.mbr(), Slot::Item(p));
        }
        assert_eq!(n.mbr(), Rect::new(1.0, 1.0, 4.0, 9.0));
        assert!(n.is_leaf());
    }
}
