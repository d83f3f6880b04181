//! The result list and RLU — Result List Update (paper §4.3, Algorithm 3).
//!
//! The result list partitions `q` into intervals, each holding the current
//! ONN candidate and the control point its distance function routes through
//! (`⟨pᵢ, cpᵢ, Rᵢ⟩` in the paper). Evaluating a new data point `p` walks its
//! control-point list against the result list, intersecting intervals and
//! splitting them wherever `p`'s distance function crosses the incumbent's
//! (Lemma 1 shortcut, then the quadratic Split of §3).

#![expect(
    clippy::indexing_slicing,
    reason = "indices derive from lengths computed in the same function (enumerate, push-then-access, partition bounds)"
)]

use conn_geom::{Interval, Segment};

use crate::config::ConnConfig;
use crate::cpl::ControlPointList;
use crate::dist::ControlPoint;
use crate::split::{lemma1_incumbent_wins, split, Winner};
use crate::types::DataPoint;

/// One tuple `⟨p, cp, R⟩` of the result list. `point == None` means no data
/// point evaluated so far can reach this interval.
#[derive(Debug, Clone, Copy)]
pub struct ResultEntry {
    /// The answer point (`None` = unreachable interval).
    pub point: Option<DataPoint>,
    /// The control point realizing the answer's distance function.
    pub cp: Option<ControlPoint>,
    /// The interval of the query segment this tuple answers.
    pub interval: Interval,
}

impl ResultEntry {
    /// The obstructed distance from the answer point to `q(t)` (requires
    /// `t` within the entry's interval).
    pub fn value(&self, q: &Segment, t: f64) -> Option<f64> {
        self.cp.as_ref().map(|cp| cp.value(q, t))
    }
}

/// Retained buffers for result-list updates. One instance lives in the
/// query workspace; in steady state the three vectors rotate with the
/// lists' own storage and RLU performs no allocations.
#[derive(Debug, Default)]
pub struct RluScratch {
    /// Spare [`ResultEntry`] buffer (rotates with `ResultList::entries`).
    pub(crate) flat: Vec<ResultEntry>,
    /// Second spare buffer (normalization pass).
    pub(crate) flat2: Vec<ResultEntry>,
    /// Spare COkNN entry buffer (rotates with `KnnResultList::entries`).
    pub(crate) knn: Vec<crate::coknn::KnnEntry>,
    /// Second spare COkNN buffer (normalization pass).
    pub(crate) knn2: Vec<crate::coknn::KnnEntry>,
}

/// The result list: sorted, disjoint intervals covering `[0, q.len()]`.
#[derive(Debug, Clone)]
pub struct ResultList {
    entries: Vec<ResultEntry>,
    qlen: f64,
}

impl ResultList {
    /// A single-interval list covering `[0, qlen]` with no answer yet.
    pub fn new(qlen: f64) -> Self {
        ResultList {
            entries: vec![ResultEntry {
                point: None,
                cp: None,
                interval: Interval::new(0.0, qlen),
            }],
            qlen,
        }
    }

    /// The tuples, in ascending interval order.
    pub fn entries(&self) -> &[ResultEntry] {
        &self.entries
    }

    /// Length of the query segment the list partitions.
    pub fn qlen(&self) -> f64 {
        self.qlen
    }

    /// `RLMAX` (Lemma 2): the largest endpoint distance over all tuples;
    /// ∞ while any tuple is unassigned (footnote 3). A data point whose
    /// `mindist` to `q` exceeds this bound cannot change the list.
    pub fn rlmax(&self, q: &Segment) -> f64 {
        let mut m = 0.0f64;
        for e in &self.entries {
            match &e.cp {
                None => return f64::INFINITY,
                Some(cp) => m = m.max(cp.max_over(q, &e.interval)),
            }
        }
        m
    }

    /// The answer at parameter `t`: the ONN and its obstructed distance.
    pub fn answer_at(&self, q: &Segment, t: f64) -> Option<(DataPoint, f64)> {
        self.entries
            .iter()
            .find(|e| e.interval.contains(t))
            .and_then(|e| match (e.point, e.value(q, t)) {
                (Some(p), Some(v)) => Some((p, v)),
                _ => None,
            })
    }

    /// RLU — Algorithm 3: folds data point `p` (with its control-point
    /// list) into the result list. One-shot convenience over
    /// [`ResultList::update_with`].
    pub fn update(&mut self, q: &Segment, p: DataPoint, cpl: &ControlPointList, cfg: &ConnConfig) {
        self.update_with(q, p, cpl, cfg, &mut RluScratch::default());
    }

    /// RLU with caller-retained scratch buffers: in steady state the update
    /// allocates nothing, rotating the list's storage through `scratch`.
    pub fn update_with(
        &mut self,
        q: &Segment,
        p: DataPoint,
        cpl: &ControlPointList,
        cfg: &ConnConfig,
        scratch: &mut RluScratch,
    ) {
        let old = std::mem::take(&mut self.entries);
        let mut out = std::mem::take(&mut scratch.flat);
        out.clear();
        out.reserve(old.len() + cpl.entries().len());
        let cpl_entries = cpl.entries();

        let mut j = 0usize; // cursor into cpl entries
        for entry in old.iter().copied() {
            let mut cursor = entry.interval.lo;
            // advance j to the first cpl entry overlapping this interval
            while j > 0 && cpl_entries[j].1.lo > cursor {
                j -= 1;
            }
            while cpl_entries[j].1.hi <= cursor && j + 1 < cpl_entries.len() {
                j += 1;
            }
            let mut jj = j;
            while cursor < entry.interval.hi - conn_geom::EPS {
                let (ref new_cp, cpl_iv) = cpl_entries[jj];
                let hi = entry.interval.hi.min(cpl_iv.hi);
                let piece = Interval::new(cursor, hi.max(cursor));
                if !piece.is_empty() {
                    Self::emit(&mut out, q, &entry, p, new_cp, piece, cfg);
                }
                cursor = hi;
                if cpl_iv.hi < entry.interval.hi - conn_geom::EPS {
                    jj += 1;
                    if jj >= cpl_entries.len() {
                        break;
                    }
                } else {
                    break;
                }
            }
        }
        self.entries = out;
        self.normalize_with(&mut scratch.flat2);
        scratch.flat = old; // recycle the pre-update storage
    }

    /// Resolves one incumbent-vs-challenger piece.
    fn emit(
        out: &mut Vec<ResultEntry>,
        q: &Segment,
        incumbent: &ResultEntry,
        p: DataPoint,
        new_cp: &Option<ControlPoint>,
        piece: Interval,
        cfg: &ConnConfig,
    ) {
        match (incumbent.cp, new_cp) {
            // challenger can't reach this piece: incumbent stays
            (_, None) => out.push(ResultEntry {
                interval: piece,
                ..*incumbent
            }),
            // nothing here yet: challenger takes it
            (None, Some(cp)) => out.push(ResultEntry {
                point: Some(p),
                cp: Some(*cp),
                interval: piece,
            }),
            (Some(inc_cp), Some(cp)) => {
                // Lemma 1 fast path (Algorithm 3 line 7)
                if cfg.use_lemma1 && lemma1_incumbent_wins(q, &inc_cp, cp, &piece) {
                    out.push(ResultEntry {
                        interval: piece,
                        ..*incumbent
                    });
                    return;
                }
                for (sub, winner) in split(q, &inc_cp, cp, piece) {
                    match winner {
                        Winner::Incumbent => out.push(ResultEntry {
                            interval: sub,
                            ..*incumbent
                        }),
                        Winner::Challenger => out.push(ResultEntry {
                            point: Some(p),
                            cp: Some(*cp),
                            interval: sub,
                        }),
                    }
                }
            }
        }
    }

    /// Merges adjacent entries with the same answer point and control point
    /// (footnote 6 of the paper). `buf` receives the merged list, then
    /// swaps with the entry storage — no allocation when `buf` has
    /// capacity.
    fn normalize_with(&mut self, buf: &mut Vec<ResultEntry>) {
        buf.clear();
        for &e in &self.entries {
            match buf.last_mut() {
                Some(prev)
                    if prev.point.map(|p| p.id) == e.point.map(|p| p.id)
                        && same_opt_cp(&prev.cp, &e.cp) =>
                {
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
    pub fn check_cover(&self) -> Result<(), crate::Error> {
        let mut cursor = 0.0;
        for e in &self.entries {
            if (e.interval.lo - cursor).abs() > 1e-6 {
                return Err(crate::Error::cover_violation(format!(
                    "gap at {cursor}: next starts {}",
                    e.interval.lo
                )));
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

    /// Corrupted-fixture hook: forces a cover gap by pretending the query
    /// segment is longer than the entries actually cover.
    #[cfg(all(test, feature = "sanitize-invariants"))]
    pub(crate) fn force_qlen_for_test(&mut self, qlen: f64) {
        self.qlen = qlen;
    }
}

fn same_opt_cp(a: &Option<ControlPoint>, b: &Option<ControlPoint>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(x), Some(y)) => x.same_as(y),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conn_geom::Point;

    fn q() -> Segment {
        Segment::new(Point::new(0.0, 0.0), Point::new(100.0, 0.0))
    }

    /// Builds a CPL whose single control point is the data point itself
    /// (free-space shortcut for tests).
    fn direct_cpl(p: Point) -> ControlPointList {
        let mut cpl = ControlPointList::new(100.0);
        cpl.offer(
            &q(),
            ControlPoint::direct(p),
            &Interval::new(0.0, 100.0),
            &ConnConfig::default(),
        );
        cpl
    }

    #[test]
    fn first_point_takes_everything() {
        let cfg = ConnConfig::default();
        let mut rl = ResultList::new(100.0);
        assert_eq!(rl.rlmax(&q()), f64::INFINITY);
        let p = DataPoint::new(0, Point::new(30.0, 20.0));
        rl.update(&q(), p, &direct_cpl(p.pos), &cfg);
        rl.check_cover().unwrap();
        assert_eq!(rl.entries().len(), 1);
        assert_eq!(rl.entries()[0].point.unwrap().id, 0);
        assert!(rl.rlmax(&q()).is_finite());
    }

    #[test]
    fn second_point_splits_at_bisector() {
        let cfg = ConnConfig::default();
        let mut rl = ResultList::new(100.0);
        let a = DataPoint::new(0, Point::new(20.0, 10.0));
        let b = DataPoint::new(1, Point::new(80.0, 10.0));
        rl.update(&q(), a, &direct_cpl(a.pos), &cfg);
        rl.update(&q(), b, &direct_cpl(b.pos), &cfg);
        rl.check_cover().unwrap();
        assert_eq!(rl.entries().len(), 2);
        assert_eq!(rl.answer_at(&q(), 10.0).unwrap().0.id, 0);
        assert_eq!(rl.answer_at(&q(), 90.0).unwrap().0.id, 1);
        let boundary = rl.entries()[0].interval.hi;
        assert!((boundary - 50.0).abs() < 1e-6);
    }

    #[test]
    fn worse_point_changes_nothing() {
        let cfg = ConnConfig::default();
        let mut rl = ResultList::new(100.0);
        let a = DataPoint::new(0, Point::new(50.0, 5.0));
        let b = DataPoint::new(1, Point::new(50.0, 500.0));
        rl.update(&q(), a, &direct_cpl(a.pos), &cfg);
        let before = rl.entries().len();
        rl.update(&q(), b, &direct_cpl(b.pos), &cfg);
        assert_eq!(rl.entries().len(), before);
        assert_eq!(rl.answer_at(&q(), 50.0).unwrap().0.id, 0);
    }

    #[test]
    fn pocket_winner_creates_three_entries() {
        let cfg = ConnConfig::default();
        let mut rl = ResultList::new(100.0);
        // a is near the line but pays a base detour; b hovers mid-height
        let a = DataPoint::new(0, Point::new(50.0, 40.0));
        rl.update(&q(), a, &direct_cpl(a.pos), &cfg);
        // challenger with a tight pocket win around t=50
        let b = DataPoint::new(1, Point::new(50.0, 5.0));
        let mut cpl = ControlPointList::new(100.0);
        cpl.offer(
            &q(),
            ControlPoint::new(Point::new(50.0, 5.0), 20.0),
            &Interval::new(0.0, 100.0),
            &cfg,
        );
        rl.update(&q(), b, &cpl, &cfg);
        rl.check_cover().unwrap();
        // F_b(50) = 25 < F_a(50) = 40, but at the ends a wins
        assert_eq!(rl.answer_at(&q(), 0.0).unwrap().0.id, 0);
        assert_eq!(rl.answer_at(&q(), 50.0).unwrap().0.id, 1);
        assert_eq!(rl.answer_at(&q(), 100.0).unwrap().0.id, 0);
        assert_eq!(rl.entries().len(), 3);
    }

    #[test]
    fn partial_cpl_leaves_unreachable_region_alone() {
        let cfg = ConnConfig::default();
        let mut rl = ResultList::new(100.0);
        let a = DataPoint::new(0, Point::new(10.0, 10.0));
        // a's CPL covers only [0, 40]
        let mut cpl = ControlPointList::new(100.0);
        cpl.offer(
            &q(),
            ControlPoint::direct(a.pos),
            &Interval::new(0.0, 40.0),
            &cfg,
        );
        rl.update(&q(), a, &cpl, &cfg);
        rl.check_cover().unwrap();
        assert!(rl.answer_at(&q(), 20.0).is_some());
        assert!(rl.answer_at(&q(), 70.0).is_none());
        assert_eq!(rl.rlmax(&q()), f64::INFINITY);
    }

    #[test]
    fn rlmax_matches_manual_bound() {
        let cfg = ConnConfig::default();
        let mut rl = ResultList::new(100.0);
        let a = DataPoint::new(0, Point::new(30.0, 40.0));
        rl.update(&q(), a, &direct_cpl(a.pos), &cfg);
        let want = a.pos.dist(Point::new(100.0, 0.0)); // far endpoint
        assert!((rl.rlmax(&q()) - want).abs() < 1e-9);
    }

    #[test]
    fn merging_keeps_single_entry_for_same_cp() {
        let cfg = ConnConfig::default();
        let mut rl = ResultList::new(100.0);
        let a = DataPoint::new(0, Point::new(50.0, 10.0));
        rl.update(&q(), a, &direct_cpl(a.pos), &cfg);
        // updating with the same point again must not fragment the list
        rl.update(&q(), a, &direct_cpl(a.pos), &cfg);
        assert_eq!(rl.entries().len(), 1);
    }
}
