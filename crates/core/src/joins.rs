//! Obstructed join queries from the Zhang et al. suite the paper's §2.3
//! describes: the obstructed **closest pair** and the obstructed
//! **e-distance join** between two point sets indexed by R\*-trees.
//!
//! Both use the classic dual-tree incremental paradigm: node/item pairs
//! ordered (or filtered) by Euclidean `mindist` — a lower bound of the
//! obstructed distance — drive the traversal, and exact obstructed
//! distances are resolved on a shared local visibility graph only for the
//! candidate pairs that survive the bound.

use conn_geom::{OrdF64, Rect};
use conn_index::{IoMeter, Mbr, RStarTree, Slot};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::engine::QueryEngine;
use crate::stats::QueryStats;
use crate::types::DataPoint;

/// One side of a candidate pair: a subtree (with its MBR, taken from the
/// parent entry so no extra page read is charged) or a concrete point.
#[derive(Clone, Copy)]
enum Side {
    Node(u32, Rect),
    Item(DataPoint),
}

impl Side {
    fn mbr(&self) -> Rect {
        match self {
            Side::Node(_, mbr) => *mbr,
            Side::Item(p) => p.mbr(),
        }
    }
}

struct PairElem {
    key: Reverse<OrdF64>,
    seq: u64,
    a: Side,
    b: Side,
}

impl PartialEq for PairElem {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.seq == other.seq
    }
}
impl Eq for PairElem {}
impl PartialOrd for PairElem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PairElem {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key).then(other.seq.cmp(&self.seq))
    }
}

impl QueryEngine {
    /// Incremental closest pair under the obstructed distance:
    /// `argmin_{a ∈ A, b ∈ B} ‖a, b‖` — `None` when either set is empty or
    /// no pair is connected. The shared local visibility graph and Dijkstra
    /// scratch come from the reused workspace. Both point trees are charged
    /// to `data_io`; NPE counts the pairs resolved.
    pub fn closest_pair(
        &mut self,
        tree_a: &RStarTree<DataPoint>,
        tree_b: &RStarTree<DataPoint>,
        obstacle_tree: &RStarTree<Rect>,
    ) -> (Option<(DataPoint, DataPoint, f64)>, QueryStats) {
        self.point_family(obstacle_tree, |resolver, io| {
            let mut best: Option<(DataPoint, DataPoint, f64)> = None;
            let mut pairs_resolved = 0u64;
            let mut heap: BinaryHeap<PairElem> = BinaryHeap::new();
            let mut seq = 0u64;
            if !tree_a.is_empty() && !tree_b.is_empty() {
                heap.push(PairElem {
                    key: Reverse(OrdF64::new(tree_a.bounds().mindist_rect(&tree_b.bounds()))),
                    seq,
                    a: Side::Node(tree_a.root(), tree_a.bounds()),
                    b: Side::Node(tree_b.root(), tree_b.bounds()),
                });
            }
            while let Some(PairElem {
                key: Reverse(OrdF64(lower)),
                a,
                b,
                ..
            }) = heap.pop()
            {
                if best.as_ref().is_some_and(|(_, _, bd)| lower >= *bd) {
                    break; // no unseen pair can beat the incumbent
                }
                let pair = expand(tree_a, tree_b, a, b, io, |a, b| {
                    seq += 1;
                    heap.push(PairElem {
                        key: Reverse(OrdF64::new(a.mbr().mindist_rect(&b.mbr()))),
                        seq,
                        a,
                        b,
                    });
                });
                let Some((pa, pb)) = pair else { continue };
                pairs_resolved += 1;
                let d = resolver.resolve(pa.pos, pb.pos);
                if d.is_finite() && best.as_ref().is_none_or(|(_, _, bd)| d < *bd) {
                    best = Some((pa, pb, d));
                }
            }
            (best, pairs_resolved, u64::from(best.is_some()))
        })
    }

    /// Obstructed e-distance join: all pairs `(a, b)` with `‖a, b‖ ≤ e`,
    /// ascending by distance (accounting as in
    /// [`QueryEngine::closest_pair`]).
    pub fn edistance_join(
        &mut self,
        tree_a: &RStarTree<DataPoint>,
        tree_b: &RStarTree<DataPoint>,
        obstacle_tree: &RStarTree<Rect>,
        e: f64,
    ) -> (Vec<(DataPoint, DataPoint, f64)>, QueryStats) {
        assert!(e >= 0.0, "negative join distance");
        self.point_family(obstacle_tree, |resolver, io| {
            let mut out: Vec<(DataPoint, DataPoint, f64)> = Vec::new();
            let mut pairs_resolved = 0u64;
            let mut stack: Vec<(Side, Side)> = Vec::new();
            if !tree_a.is_empty() && !tree_b.is_empty() {
                stack.push((
                    Side::Node(tree_a.root(), tree_a.bounds()),
                    Side::Node(tree_b.root(), tree_b.bounds()),
                ));
            }
            while let Some((a, b)) = stack.pop() {
                if a.mbr().mindist_rect(&b.mbr()) > e {
                    continue; // euclidean lower bound already exceeds e
                }
                let pair = expand(tree_a, tree_b, a, b, io, |a, b| stack.push((a, b)));
                if let Some((pa, pb)) = pair {
                    pairs_resolved += 1;
                    let d = resolver.resolve(pa.pos, pb.pos);
                    if d <= e {
                        out.push((pa, pb, d));
                    }
                }
            }
            out.sort_by(|x, y| x.2.total_cmp(&y.2).then(x.0.id.cmp(&y.0.id)));
            let tuples = out.len() as u64;
            (out, pairs_resolved, tuples)
        })
    }
}

/// One step of the dual-tree descent: a concrete point pair to resolve, or
/// `None` after handing `push` the candidate pairs below `(a, b)` — the side
/// that is a node (the one with the larger MBR when both are: the classic
/// heuristic) read, charged to `io`, and paired child by child with the
/// other side.
fn expand(
    tree_a: &RStarTree<DataPoint>,
    tree_b: &RStarTree<DataPoint>,
    a: Side,
    b: Side,
    io: &IoMeter,
    mut push: impl FnMut(Side, Side),
) -> Option<(DataPoint, DataPoint)> {
    match (a, b) {
        (Side::Item(pa), Side::Item(pb)) => return Some((pa, pb)),
        (Side::Node(na, ma), Side::Node(_, mb)) if ma.area() >= mb.area() => {
            node_sides(tree_a.read_node(na, io)).for_each(|side| push(side, b));
        }
        (_, Side::Node(nb, _)) => {
            node_sides(tree_b.read_node(nb, io)).for_each(|side| push(a, side));
        }
        (Side::Node(na, _), Side::Item(_)) => {
            node_sides(tree_a.read_node(na, io)).for_each(|side| push(side, b));
        }
    }
    None
}

/// Iterates a node's slots as [`Side`]s, zipping the envelope lane back in.
fn node_sides<'n>(node: &'n conn_index::Node<DataPoint>) -> impl Iterator<Item = Side> + 'n {
    node.mbrs
        .iter()
        .zip(&node.slots)
        .map(|(mbr, slot)| match slot {
            Slot::Child(page) => Side::Node(*page, *mbr),
            Slot::Item(p) => Side::Item(*p),
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::obstructed_distance;
    use conn_geom::Point;

    fn sets() -> (Vec<DataPoint>, Vec<DataPoint>, Vec<Rect>) {
        let a = vec![
            DataPoint::new(0, Point::new(0.0, 0.0)),
            DataPoint::new(1, Point::new(50.0, 10.0)),
            DataPoint::new(2, Point::new(90.0, 90.0)),
        ];
        let b = vec![
            DataPoint::new(10, Point::new(30.0, 0.0)),
            DataPoint::new(11, Point::new(55.0, 40.0)),
            DataPoint::new(12, Point::new(100.0, 95.0)),
        ];
        let obstacles = vec![Rect::new(10.0, -5.0, 20.0, 15.0)];
        (a, b, obstacles)
    }

    fn brute_closest(a: &[DataPoint], b: &[DataPoint], obs: &[Rect]) -> (u32, u32, f64) {
        let mut best = (0, 0, f64::INFINITY);
        for x in a {
            for y in b {
                let d = obstructed_distance(obs, x.pos, y.pos);
                if d < best.2 {
                    best = (x.id, y.id, d);
                }
            }
        }
        best
    }

    #[test]
    fn closest_pair_matches_brute_force() {
        let (a, b, obs) = sets();
        let ta = RStarTree::bulk_load(a.clone(), 4096);
        let tb = RStarTree::bulk_load(b.clone(), 4096);
        let to = RStarTree::bulk_load(obs.clone(), 4096);
        let (got, stats) = QueryEngine::default().closest_pair(&ta, &tb, &to);
        let (pa, pb, d) = got.expect("non-empty sets");
        let want = brute_closest(&a, &b, &obs);
        assert!((d - want.2).abs() < 1e-6, "{d} vs {}", want.2);
        assert_eq!((pa.id, pb.id), (want.0, want.1));
        assert!(stats.npe >= 1);
    }

    #[test]
    fn closest_pair_changes_with_obstacle() {
        let (a, b, obs) = sets();
        let ta = RStarTree::bulk_load(a.clone(), 4096);
        let tb = RStarTree::bulk_load(b.clone(), 4096);
        let empty: RStarTree<Rect> = RStarTree::bulk_load(vec![], 4096);
        let to = RStarTree::bulk_load(obs, 4096);
        let (free, _) = QueryEngine::default().closest_pair(&ta, &tb, &empty);
        let (blocked, _) = QueryEngine::default().closest_pair(&ta, &tb, &to);
        assert!(blocked.unwrap().2 >= free.unwrap().2 - 1e-9);
    }

    #[test]
    fn closest_pair_larger_sets() {
        // brute-force cross-check on a bigger instance
        let a: Vec<DataPoint> = (0..40)
            .map(|i| {
                DataPoint::new(
                    i,
                    Point::new((i as f64 * 37.0) % 300.0, (i as f64 * 91.0) % 300.0),
                )
            })
            .collect();
        let b: Vec<DataPoint> = (0..40)
            .map(|i| {
                DataPoint::new(
                    100 + i,
                    Point::new(150.0 + (i as f64 * 53.0) % 300.0, (i as f64 * 67.0) % 300.0),
                )
            })
            .collect();
        let obs = vec![
            Rect::new(140.0, 50.0, 160.0, 200.0),
            Rect::new(200.0, 220.0, 330.0, 240.0),
        ];
        let ta = RStarTree::bulk_load(a.clone(), 4096);
        let tb = RStarTree::bulk_load(b.clone(), 4096);
        let to = RStarTree::bulk_load(obs.clone(), 4096);
        let (got, _) = QueryEngine::default().closest_pair(&ta, &tb, &to);
        let (_, _, d) = got.unwrap();
        let want = brute_closest(&a, &b, &obs);
        assert!((d - want.2).abs() < 1e-6, "{d} vs {}", want.2);
    }

    #[test]
    fn edistance_join_matches_filtered_brute_force() {
        let (a, b, obs) = sets();
        let ta = RStarTree::bulk_load(a.clone(), 4096);
        let tb = RStarTree::bulk_load(b.clone(), 4096);
        let to = RStarTree::bulk_load(obs.clone(), 4096);
        for e in [10.0, 35.0, 60.0, 200.0] {
            let (got, _) = QueryEngine::default().edistance_join(&ta, &tb, &to, e);
            let mut want = Vec::new();
            for x in &a {
                for y in &b {
                    let d = obstructed_distance(&obs, x.pos, y.pos);
                    if d <= e {
                        want.push((x.id, y.id, d));
                    }
                }
            }
            assert_eq!(got.len(), want.len(), "e = {e}");
            for (pa, pb, d) in &got {
                let w = want
                    .iter()
                    .find(|(ia, ib, _)| *ia == pa.id && *ib == pb.id)
                    .unwrap_or_else(|| panic!("unexpected pair {}-{}", pa.id, pb.id));
                assert!((d - w.2).abs() < 1e-6);
            }
            // ascending by distance
            for w in got.windows(2) {
                assert!(w[0].2 <= w[1].2 + 1e-9);
            }
        }
    }

    #[test]
    fn empty_inputs() {
        let (a, _, _) = sets();
        let ta = RStarTree::bulk_load(a, 4096);
        let tempty: RStarTree<DataPoint> = RStarTree::bulk_load(vec![], 4096);
        let to: RStarTree<Rect> = RStarTree::bulk_load(vec![], 4096);
        let (cp, _) = QueryEngine::default().closest_pair(&ta, &tempty, &to);
        assert!(cp.is_none());
        let (join, _) = QueryEngine::default().edistance_join(&tempty, &ta, &to, 100.0);
        assert!(join.is_empty());
    }
}
