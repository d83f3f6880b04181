//! COkNN — continuous obstructed k-nearest neighbors (paper §4.5).
//!
//! The result list generalizes to tuples `⟨ONNSᵢ, Rᵢ⟩`: an ordered list of
//! up to `k` members per interval, each member carrying the control point
//! its distance function routes through. Intervals are refined at every
//! crossing between a new candidate's function and a member's function, so
//! the member order is constant within each interval; the pruning bound
//! becomes `RLMAX = maxᵢ max(kth-dist(Rᵢ.l), kth-dist(Rᵢ.r))`, infinite
//! while any interval holds fewer than `k` members.
//!
//! COkNN runs on the same kernel as CONN (the shared loop in
//! [`crate::conn`]): under [`crate::KernelMode::GoalDirected`] the k-th
//! bound above is handed to CPLC as its outer expansion cap — a candidate
//! control point that cannot beat the k-th member anywhere stops the graph
//! traversal instead of merely being filtered out of the result.

#![expect(
    clippy::indexing_slicing,
    reason = "k-list slots are allocated up front; member indices are bounded by k"
)]

use conn_geom::{Interval, Segment, EPS};

use crate::config::ConnConfig;
use crate::conn::ResultSink;
use crate::cpl::ControlPointList;
use crate::dist::ControlPoint;
use crate::split::crossing_params;
use crate::types::DataPoint;

/// One member of an interval's ONN set.
#[derive(Debug, Clone, Copy)]
pub struct Member {
    /// The data point.
    pub point: DataPoint,
    /// The control point its distance function is anchored at.
    pub cp: ControlPoint,
}

/// One tuple `⟨ONNS, R⟩`: members sorted ascending by distance over all of
/// `R` (the order is constant within the interval by construction).
#[derive(Debug, Clone)]
pub struct KnnEntry {
    /// The interval's ONN set, ascending by distance.
    pub members: Vec<Member>,
    /// The interval of the query segment this set answers.
    pub interval: Interval,
}

/// The COkNN result list.
#[derive(Debug, Clone)]
pub(crate) struct KnnResultList {
    entries: Vec<KnnEntry>,
    k: usize,
    qlen: f64,
}

impl KnnResultList {
    /// A single-interval list covering `[0, qlen]` with an empty ONN set.
    pub(crate) fn new(qlen: f64, k: usize) -> Self {
        assert!(k >= 1, "k must be positive");
        KnnResultList {
            entries: vec![KnnEntry {
                members: Vec::new(),
                interval: Interval::new(0.0, qlen),
            }],
            k,
            qlen,
        }
    }

    /// The `k` the list was built for.
    pub(crate) fn k(&self) -> usize {
        self.k
    }

    /// The tuples, in ascending interval order.
    pub(crate) fn entries(&self) -> &[KnnEntry] {
        &self.entries
    }

    /// §4.5 pruning bound: ∞ until every interval holds `k` members.
    pub(crate) fn rlmax(&self, q: &Segment) -> f64 {
        let mut m = 0.0f64;
        for e in &self.entries {
            if e.members.len() < self.k {
                return f64::INFINITY;
            }
            let kth = &e.members[self.k - 1].cp;
            m = m.max(kth.max_over(q, &e.interval));
        }
        m
    }

    /// The k answers at parameter `t` (ascending obstructed distance).
    pub(crate) fn answers_at(&self, q: &Segment, t: f64) -> Vec<(DataPoint, f64)> {
        self.entries
            .iter()
            .find(|e| e.interval.contains(t))
            .map(|e| {
                e.members
                    .iter()
                    .map(|m| (m.point, m.cp.value(q, t)))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Update with caller-retained scratch (the workspace's buffer rotates
    /// with the list's own storage).
    pub(crate) fn update_with(
        &mut self,
        q: &Segment,
        p: DataPoint,
        cpl: &ControlPointList,
        scratch: &mut crate::rlu::RluScratch,
    ) {
        let mut old = std::mem::take(&mut self.entries);
        let mut out = std::mem::take(&mut scratch.knn);
        out.clear();
        out.reserve(old.len() * 2);
        let cpl_entries = cpl.entries();

        for entry in old.drain(..) {
            let mut cursor = entry.interval.lo;
            let mut j = cpl_entries
                .iter()
                .position(|(_, iv)| iv.hi > cursor + EPS)
                .unwrap_or(cpl_entries.len() - 1);
            while cursor < entry.interval.hi - EPS {
                let (ref new_cp, cpl_iv) = cpl_entries[j];
                let hi = entry.interval.hi.min(cpl_iv.hi);
                let piece = Interval::new(cursor, hi.max(cursor));
                if !piece.is_empty() {
                    match new_cp {
                        None => out.push(KnnEntry {
                            members: entry.members.clone(),
                            interval: piece,
                        }),
                        Some(cp) => self.challenge(q, &entry, p, cp, piece, &mut out),
                    }
                }
                cursor = hi;
                if cpl_iv.hi < entry.interval.hi - EPS && j + 1 < cpl_entries.len() {
                    j += 1;
                } else {
                    break;
                }
            }
        }
        self.entries = out;
        self.normalize_with(&mut scratch.knn2);
        scratch.knn = old; // recycle the pre-update storage
    }

    /// Inserts candidate `(p, cp)` into one piece: cut at every crossing
    /// with a member, then rank the candidate per sub-piece.
    fn challenge(
        &self,
        q: &Segment,
        entry: &KnnEntry,
        p: DataPoint,
        cp: &ControlPoint,
        piece: Interval,
        out: &mut Vec<KnnEntry>,
    ) {
        let mut cuts: Vec<f64> = vec![piece.lo, piece.hi];
        for m in &entry.members {
            cuts.extend(crossing_params(q, &m.cp, cp, &piece));
        }
        cuts.sort_by(f64::total_cmp);
        cuts.dedup_by(|a, b| (*a - *b).abs() <= EPS);

        for w in cuts.windows(2) {
            let sub = Interval::new(w[0], w[1]);
            if sub.is_empty() {
                continue;
            }
            let mid = sub.midpoint();
            let cand_v = cp.value(q, mid);
            // members are sorted by value at mid (order constant on sub)
            let rank = entry
                .members
                .partition_point(|m| m.cp.value(q, mid) <= cand_v + EPS);
            let mut members = entry.members.clone();
            if rank < self.k {
                members.insert(rank, Member { point: p, cp: *cp });
                members.truncate(self.k);
            }
            out.push(KnnEntry {
                members,
                interval: sub,
            });
        }
    }

    /// Merges adjacent entries with identical member lists. `buf` receives
    /// the merged list, then swaps with the entry storage — no allocation
    /// when `buf` has capacity.
    fn normalize_with(&mut self, buf: &mut Vec<KnnEntry>) {
        buf.clear();
        for e in self.entries.drain(..) {
            match buf.last_mut() {
                Some(prev) if same_members(&prev.members, &e.members) => {
                    prev.interval.hi = e.interval.hi;
                }
                Some(prev) if e.interval.is_empty() => prev.interval.hi = e.interval.hi,
                _ => {
                    if e.interval.is_empty() && !buf.is_empty() {
                        continue;
                    }
                    buf.push(e);
                }
            }
        }
        std::mem::swap(&mut self.entries, buf);
    }

    /// Validation helper: the entries exactly cover `[0, qlen]`.
    pub(crate) fn check_cover(&self) -> Result<(), crate::Error> {
        let mut cursor = 0.0;
        for e in &self.entries {
            if (e.interval.lo - cursor).abs() > 1e-6 {
                return Err(crate::Error::cover_violation(format!("gap at {cursor}")));
            }
            cursor = e.interval.hi;
        }
        if (cursor - self.qlen).abs() > 1e-6 {
            return Err(crate::Error::cover_violation(format!(
                "cover ends at {cursor} != {}",
                self.qlen
            )));
        }
        Ok(())
    }
}

fn same_members(a: &[Member], b: &[Member]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.point.id == y.point.id && x.cp.same_as(&y.cp))
}

impl ResultSink for KnnResultList {
    fn prune_bound(&self, q: &Segment) -> f64 {
        self.rlmax(q)
    }

    fn absorb(
        &mut self,
        q: &Segment,
        p: DataPoint,
        cpl: &ControlPointList,
        _cfg: &ConnConfig,
        scratch: &mut crate::rlu::RluScratch,
    ) {
        self.update_with(q, p, cpl, scratch);
    }

    fn tuples(&self) -> u64 {
        self.entries.len() as u64
    }
}

/// Answer of a COkNN query.
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
        // Sanitizer choke point: every COkNN answer passes through this
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

    /// The `k` the query asked for.
    pub fn k(&self) -> usize {
        self.list.k()
    }

    /// Raw tuples at control-point granularity.
    pub fn entries(&self) -> &[KnnEntry] {
        self.list.entries()
    }

    /// The k nearest data points (ascending distance) at parameter `t`.
    pub fn knn_at(&self, t: f64) -> Vec<(DataPoint, f64)> {
        self.list.answers_at(&self.q, t)
    }

    /// `⟨ONNS, R⟩` tuples with adjacent intervals of identical member *id
    /// sets* merged (order within the set may change inside an interval).
    pub fn segments(&self) -> Vec<(Vec<u32>, Interval)> {
        let mut out: Vec<(Vec<u32>, Interval)> = Vec::new();
        for e in self.list.entries() {
            let mut ids: Vec<u32> = e.members.iter().map(|m| m.point.id).collect();
            ids.sort_unstable();
            match out.last_mut() {
                Some((prev, iv)) if *prev == ids => iv.hi = e.interval.hi,
                _ => out.push((ids, e.interval)),
            }
        }
        out
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
        let segs = res.segments();
        assert!(segs.len() >= 2);
        for w in segs.windows(2) {
            assert_ne!(w[0].0, w[1].0, "unmerged identical neighbor sets");
        }
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
