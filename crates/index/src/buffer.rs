//! LRU page buffer.
//!
//! Figure 12 of the paper varies the buffer size from 0 to 32 % of the tree
//! size; only the I/O metric reacts. The buffer here is a textbook O(1) LRU:
//! a hash map from frame key to a slot in an intrusive doubly-linked list.
//! The key is whatever names a page for the buffer's owner — a bare page id
//! for one tree, `(tree, page)` for the [`crate::IoMeter`], whose frames
//! come from several trees.

#![expect(
    clippy::indexing_slicing,
    reason = "frame indices come from the LRU list the same struct maintains"
)]

use crate::node::PageId;
use std::collections::HashMap;
use std::hash::Hash;

const NIL: usize = usize::MAX;

#[derive(Debug, Clone, Copy)]
struct Slot<K> {
    page: K,
    prev: usize,
    next: usize,
}

/// Fixed-capacity LRU cache over frame keys (contents live in the page
/// store; the buffer only tracks *which* pages are resident).
#[derive(Debug)]
pub struct LruBuffer<K = PageId> {
    capacity: usize,
    map: HashMap<K, usize>,
    slots: Vec<Slot<K>>,
    head: usize, // most recently used
    tail: usize, // least recently used
    free: Vec<usize>,
}

impl<K: Copy + Eq + Hash> LruBuffer<K> {
    /// A buffer that can hold `capacity` pages; 0 disables caching entirely.
    pub fn new(capacity: usize) -> Self {
        LruBuffer {
            capacity,
            map: HashMap::with_capacity(capacity),
            slots: Vec::with_capacity(capacity),
            head: NIL,
            tail: NIL,
            free: Vec::new(),
        }
    }

    /// Maximum number of resident pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of currently resident pages.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no pages are resident.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Empties the buffer (used between experiment runs).
    pub fn clear(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// Resizes the buffer, dropping the least recently used pages if needed.
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
        while self.map.len() > self.capacity {
            self.evict_lru();
        }
    }

    /// Records an access to `page`. Returns `true` on a buffer hit, `false`
    /// on a fault (the page is then brought in, evicting the LRU page).
    pub fn access(&mut self, page: K) -> bool {
        if self.capacity == 0 {
            return false;
        }
        if let Some(&slot) = self.map.get(&page) {
            self.unlink(slot);
            self.push_front(slot);
            return true;
        }
        if self.map.len() >= self.capacity {
            self.evict_lru();
        }
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s].page = page;
                s
            }
            None => {
                self.slots.push(Slot {
                    page,
                    prev: NIL,
                    next: NIL,
                });
                self.slots.len() - 1
            }
        };
        self.map.insert(page, slot);
        self.push_front(slot);
        false
    }

    fn unlink(&mut self, slot: usize) {
        let Slot { prev, next, .. } = self.slots[slot];
        if prev != NIL {
            self.slots[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, slot: usize) {
        self.slots[slot].prev = NIL;
        self.slots[slot].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }

    fn evict_lru(&mut self) {
        let lru = self.tail;
        debug_assert_ne!(lru, NIL, "evict on empty buffer");
        let page = self.slots[lru].page;
        self.unlink(lru);
        self.map.remove(&page);
        self.free.push(lru);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_capacity_never_hits() {
        let mut b = LruBuffer::new(0);
        assert!(!b.access(1));
        assert!(!b.access(1));
        assert_eq!(b.len(), 0);
    }

    #[test]
    fn hit_after_miss() {
        let mut b = LruBuffer::new(2);
        assert!(!b.access(1));
        assert!(b.access(1));
        assert!(!b.access(2));
        assert!(b.access(1));
        assert!(b.access(2));
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut b = LruBuffer::new(2);
        b.access(1);
        b.access(2);
        b.access(1); // 2 is now LRU
        assert!(!b.access(3)); // evicts 2
        assert!(b.access(1));
        assert!(!b.access(2)); // fault again
    }

    #[test]
    fn shrink_capacity_drops_lru_pages() {
        let mut b = LruBuffer::new(4);
        for p in 0..4 {
            b.access(p);
        }
        b.set_capacity(2);
        assert_eq!(b.len(), 2);
        assert!(b.access(3));
        assert!(b.access(2));
        assert!(!b.access(0));
    }

    #[test]
    fn long_access_pattern_is_consistent_with_model() {
        // compare against a naive reference implementation
        let mut b = LruBuffer::new(3);
        let mut reference: Vec<PageId> = Vec::new(); // front = MRU
        let pattern: Vec<PageId> = vec![1, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5, 2, 2, 9, 1, 3];
        for &p in &pattern {
            let hit = b.access(p);
            let ref_hit = reference.contains(&p);
            assert_eq!(hit, ref_hit, "page {p}");
            reference.retain(|&x| x != p);
            reference.insert(0, p);
            reference.truncate(3);
        }
    }
}
