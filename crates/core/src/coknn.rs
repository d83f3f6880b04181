//! COkNN — continuous obstructed k-nearest neighbors (paper §4.5): the
//! answer type of every segment query, CONN's `k = 1` included.
//!
//! The result list generalizes to tuples `⟨ONNSᵢ, Rᵢ⟩`: an ordered list of
//! up to `k` members per interval, each member carrying the control point
//! its distance function routes through. That list and its RLU live in
//! `rlu.rs` and serve every `k`; the pruning bound becomes
//! `RLMAX = maxᵢ max(kth-dist(Rᵢ.l), kth-dist(Rᵢ.r))`, infinite while any
//! interval holds fewer than `k` members. At `k = 1` the tuples are CONN's
//! `⟨p, cp, R⟩` (Def. 6), and [`CoknnResult::segments`] reads out its
//! `⟨p, R⟩` output at every `k`.
//!
//! COkNN runs on the same kernel as CONN (the shared loop in `conn.rs`):
//! under [`crate::KernelMode::GoalDirected`] the k-th bound above is handed
//! to CPLC as its outer expansion cap — a candidate control point that
//! cannot beat the k-th member anywhere stops the graph traversal instead
//! of merely being filtered out of the result.

use conn_geom::{Interval, Segment};

use crate::rlu::{KnnEntry, KnnResultList};
use crate::types::DataPoint;

/// Answer of a CONN (`k = 1`) or COkNN query over a segment.
///
/// ```
/// use conn_core::{ConnService, DataPoint, Query, Scene};
/// use conn_geom::{Point, Rect, Segment};
///
/// let service = ConnService::new(Scene::new(
///     vec![
///         DataPoint::new(0, Point::new(20.0, 30.0)),
///         DataPoint::new(1, Point::new(60.0, 20.0)),
///         DataPoint::new(2, Point::new(90.0, 40.0)),
///     ],
///     vec![Rect::new(45.0, 5.0, 55.0, 35.0)],
/// ));
/// let q = Segment::new(Point::new(0.0, 0.0), Point::new(100.0, 0.0));
///
/// let response = service.execute(&Query::coknn(q, 2).build()?)?;
/// let result = response.answer.as_coknn().expect("coknn answer");
/// let two_nearest = result.knn_at(50.0);
/// assert_eq!(two_nearest.len(), 2);
/// assert!(two_nearest[0].1 <= two_nearest[1].1);
///
/// // a CONN answer is the k = 1 list: its nearest point is the first member
/// let response = service.execute(&Query::conn(q).build()?)?;
/// let conn = response.answer.as_conn().expect("conn answer");
/// assert_eq!(conn.k(), 1);
/// assert_eq!(conn.nn_at(50.0), result.knn_at(50.0).first().copied());
/// for (nearest, interval) in conn.segments() {
///     assert!(nearest.is_some() && interval.hi > interval.lo);
/// }
/// # Ok::<(), conn_core::Error>(())
/// ```
#[derive(Debug, Clone)]
#[must_use]
pub struct CoknnResult {
    q: Segment,
    list: KnnResultList,
}

impl CoknnResult {
    pub(crate) fn new(q: Segment, list: KnnResultList) -> Self {
        let res = CoknnResult { q, list };
        // Sanitizer choke point: every segment answer passes through this
        // constructor, so the cover audit sees all of them.
        if conn_geom::sanitize::enabled() {
            if let Err(e) = res.check_cover() {
                conn_geom::sanitize::violation("CoknnResult cover", &e.to_string());
            }
        }
        res
    }

    /// The query segment.
    pub fn query(&self) -> &Segment {
        &self.q
    }

    /// The `k` the query asked for (1 for CONN).
    pub fn k(&self) -> usize {
        self.list.k()
    }

    /// Raw tuples `⟨ONNS, R⟩` at control-point granularity.
    pub fn entries(&self) -> &[KnnEntry] {
        self.list.entries()
    }

    /// The result list, handed over by value.
    pub(crate) fn into_list(self) -> KnnResultList {
        self.list
    }

    /// The k nearest data points (ascending distance) at parameter `t`.
    pub fn knn_at(&self, t: f64) -> Vec<(DataPoint, f64)> {
        self.list.knn_at(t, self.q.at(t))
    }

    /// The ONN at parameter `t ∈ [0, q.len()]` with its obstructed distance.
    pub fn nn_at(&self, t: f64) -> Option<(DataPoint, f64)> {
        self.list.nn_at(t, self.q.at(t))
    }

    /// The nearest member's `⟨p, R⟩` tuples with adjacent intervals of the
    /// same point merged (the paper's Definition 6 output). `None` marks
    /// intervals with no reachable data point.
    pub fn segments(&self) -> Vec<(Option<DataPoint>, Interval)> {
        self.list.segments()
    }

    /// Split points: the parameters where the nearest point changes.
    pub fn split_points(&self) -> Vec<f64> {
        self.list.split_points()
    }

    /// Validates the answer's cover invariants: the entries exactly cover
    /// `[0, |q|]`.
    pub fn check_cover(&self) -> Result<(), crate::Error> {
        self.list.check_cover()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{QueryEngine, QueryStats};
    use conn_geom::{Point, Rect};
    use conn_index::RStarTree;

    fn q() -> Segment {
        Segment::new(Point::new(0.0, 0.0), Point::new(100.0, 0.0))
    }

    fn search(points: Vec<DataPoint>, obstacles: Vec<Rect>, k: usize) -> (CoknnResult, QueryStats) {
        let dt = RStarTree::bulk_load(points, 4096);
        let ot = RStarTree::bulk_load(obstacles, 4096);
        QueryEngine::default().coknn(&dt, &ot, &q(), k)
    }

    fn pts() -> Vec<DataPoint> {
        vec![
            DataPoint::new(0, Point::new(15.0, 12.0)),
            DataPoint::new(1, Point::new(45.0, 18.0)),
            DataPoint::new(2, Point::new(75.0, 9.0)),
            DataPoint::new(3, Point::new(95.0, 30.0)),
        ]
    }

    #[test]
    fn k2_free_space_members_sorted() {
        let (res, _) = search(pts(), vec![], 2);
        res.check_cover().unwrap();
        for i in 0..=20 {
            let t = 100.0 * (i as f64) / 20.0;
            let ans = res.knn_at(t);
            assert_eq!(ans.len(), 2, "t = {t}");
            assert!(ans[0].1 <= ans[1].1 + 1e-9);
        }
    }

    #[test]
    fn k1_matches_expected_winners() {
        let (res, _) = search(pts(), vec![], 1);
        assert_eq!(res.knn_at(0.0)[0].0.id, 0);
        assert_eq!(res.knn_at(99.0)[0].0.id, 2);
    }

    #[test]
    fn k_larger_than_data_keeps_all() {
        let (res, _) = search(pts(), vec![], 9);
        res.check_cover().unwrap();
        let ans = res.knn_at(50.0);
        assert_eq!(ans.len(), 4, "only 4 points exist");
        // pruning bound must stay infinite, so all points are evaluated
    }

    #[test]
    fn member_sets_change_at_segment_boundaries() {
        let (res, _) = search(pts(), vec![], 2);
        // the member id sets along q, adjacent equal sets merged
        let mut sets: Vec<Vec<u32>> = Vec::new();
        for e in res.entries() {
            let mut ids: Vec<u32> = e.members.iter().map(|m| m.point.id).collect();
            ids.sort_unstable();
            if sets.last() != Some(&ids) {
                sets.push(ids);
            }
        }
        assert!(sets.len() >= 2, "one neighbor set along all of q");
    }

    #[test]
    fn obstacle_affects_knn_order() {
        let wall = Rect::new(40.0, 5.0, 50.0, 40.0);
        let (free, _) = search(pts(), vec![], 2);
        let (blocked, _) = search(pts(), vec![wall], 2);
        // behind the wall, point 1's distance grows; ranking at t=55 may flip
        let f = free.knn_at(55.0);
        let b = blocked.knn_at(55.0);
        assert_eq!(f.len(), 2);
        assert_eq!(b.len(), 2);
        let fd: f64 = f.iter().map(|x| x.1).sum();
        let bd: f64 = b.iter().map(|x| x.1).sum();
        assert!(bd >= fd - 1e-9, "obstacles cannot shrink distances");
    }

    #[test]
    #[should_panic]
    fn zero_k_rejected() {
        let _ = KnnResultList::new(10.0, 0);
    }
}
