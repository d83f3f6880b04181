//! The result list and RLU — Result List Update (paper §4.3, Algorithm 3,
//! in the `k`-member form of §4.5).
//!
//! The result list partitions `q` into intervals, each holding an ordered
//! set of up to `k` members (`⟨ONNSᵢ, Rᵢ⟩` in the paper); every member
//! carries the control point its distance function routes through. CONN is
//! the `k = 1` case, whose tuples are the paper's `⟨pᵢ, cpᵢ, Rᵢ⟩`.
//! Evaluating a new data point `p` walks its control-point list against the
//! result list and cuts each piece at every crossing between `p`'s function
//! and a member's (the quadratic Split of §3), so the member order is
//! constant within each interval. Lemma 1 skips the cutting where the k-th
//! member beats `p` over the whole piece. The pruning bound is
//! `RLMAX = maxᵢ max(kth-dist(Rᵢ.l), kth-dist(Rᵢ.r))` (Lemma 2), infinite
//! while any interval holds fewer than `k` members (footnote 3).

#![expect(
    clippy::indexing_slicing,
    reason = "k-list slots are allocated up front; member indices are bounded by k"
)]

use conn_geom::{Interval, IntervalSet, Point, Rect, Segment, EPS};

use crate::config::ConnConfig;
use crate::cpl::ControlPointList;
use crate::dist::ControlPoint;
use crate::error::check_cover;
use crate::split::{crossing_params, lemma1_incumbent_wins};
use crate::types::DataPoint;

/// One member of an interval's ONN set.
#[derive(Debug, Clone, Copy)]
pub struct Member {
    /// The data point.
    pub point: DataPoint,
    /// The control point its distance function is anchored at.
    pub cp: ControlPoint,
}

impl Member {
    /// The member with its obstructed distance to the query position `at`
    /// (`base + |cp − at|`).
    fn answer(&self, at: Point) -> (DataPoint, f64) {
        (self.point, self.cp.base + self.cp.pos.dist(at))
    }
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

/// Retained buffers for result-list updates. One instance lives in the
/// query workspace; in steady state the two vectors rotate with the list's
/// own storage.
#[derive(Debug, Default)]
pub(crate) struct RluScratch {
    /// Spare entry buffer (rotates with `KnnResultList::entries`).
    knn: Vec<KnnEntry>,
    /// Second spare buffer (normalization pass).
    knn2: Vec<KnnEntry>,
}

/// The result list: sorted, disjoint intervals covering `[0, qlen]`.
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

    /// The tuples, handed over by value.
    pub(crate) fn into_entries(self) -> Vec<KnnEntry> {
        self.entries
    }

    /// `RLMAX` (Lemma 2): ∞ until every interval holds `k` members. A data
    /// point whose `mindist` to `q` exceeds this bound cannot change the
    /// list.
    ///
    /// An interval with no members that lies inside the open interiors of
    /// `obstacles` (the graph's) counts as full: no data point can reach
    /// such a stretch of `q` (the segment form of `Resolver::swallowed`),
    /// so waiting for a member there would never stop the point stream.
    /// Touching interiors merge: the one parameter where two rectangles
    /// touch may be reachable, but no interval of the list can hold it.
    pub(crate) fn rlmax(&self, q: &Segment, obstacles: &[Rect]) -> f64 {
        let mut inside: Option<IntervalSet> = None;
        let mut m = 0.0f64;
        for e in &self.entries {
            if e.members.len() < self.k {
                let walled = e.members.is_empty()
                    && inside
                        .get_or_insert_with(|| self.interiors(q, obstacles))
                        .intervals()
                        .iter()
                        .any(|u| u.lo - EPS <= e.interval.lo && e.interval.hi <= u.hi + EPS);
                if walled {
                    continue;
                }
                return f64::INFINITY;
            }
            let kth = &e.members[self.k - 1].cp;
            m = m.max(kth.max_over(q, &e.interval));
        }
        m
    }

    /// The stretches of `q` inside the open interior of some obstacle.
    fn interiors(&self, q: &Segment, obstacles: &[Rect]) -> IntervalSet {
        IntervalSet::from_intervals(
            obstacles
                .iter()
                .filter(|r| r.blocks(q))
                .filter_map(|r| r.clip_segment(q))
                .map(|(t0, t1)| Interval::new(t0 * self.qlen, t1 * self.qlen))
                .collect(),
        )
    }

    /// The entry whose interval holds parameter `t`.
    fn entry_at(&self, t: f64) -> Option<&KnnEntry> {
        self.entries.iter().find(|e| e.interval.contains(t))
    }

    /// The k answers at parameter `t`, where the query sits at `at`
    /// (ascending obstructed distance).
    pub(crate) fn knn_at(&self, t: f64, at: Point) -> Vec<(DataPoint, f64)> {
        self.entry_at(t)
            .map(|e| e.members.iter().map(|m| m.answer(at)).collect())
            .unwrap_or_default()
    }

    /// The nearest answer at parameter `t`, where the query sits at `at`.
    pub(crate) fn nn_at(&self, t: f64, at: Point) -> Option<(DataPoint, f64)> {
        self.entry_at(t)?.members.first().map(|m| m.answer(at))
    }

    /// The nearest member's `⟨p, R⟩` tuples with adjacent intervals of the
    /// same point merged (the paper's Definition 6 output). `None` marks
    /// intervals with no reachable data point.
    pub(crate) fn segments(&self) -> Vec<(Option<DataPoint>, Interval)> {
        let mut out: Vec<(Option<DataPoint>, Interval)> = Vec::new();
        for e in &self.entries {
            let p = e.members.first().map(|m| m.point);
            match out.last_mut() {
                Some((prev, last)) if prev.map(|x| x.id) == p.map(|x| x.id) => {
                    last.hi = e.interval.hi;
                }
                _ => out.push((p, e.interval)),
            }
        }
        out
    }

    /// Split points: the parameters where the nearest point changes.
    pub(crate) fn split_points(&self) -> Vec<f64> {
        self.segments().windows(2).map(|w| w[0].1.hi).collect()
    }

    /// RLU — Algorithm 3: folds data point `p` (with its control-point
    /// list) into the result list, rotating the list's storage through the
    /// workspace's `scratch`.
    pub(crate) fn update_with(
        &mut self,
        q: &Segment,
        p: DataPoint,
        cpl: &ControlPointList,
        cfg: &ConnConfig,
        scratch: &mut RluScratch,
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
                    // Lemma 1 fast path (Algorithm 3 line 7): a candidate
                    // the k-th member beats over the whole piece cannot
                    // enter the set anywhere on it
                    let kth_wins = |cp: &ControlPoint| {
                        cfg.use_lemma1
                            && entry
                                .members
                                .get(self.k - 1)
                                .is_some_and(|kth| lemma1_incumbent_wins(q, &kth.cp, cp, &piece))
                    };
                    match new_cp {
                        Some(cp) if !kth_wins(cp) => {
                            self.challenge(q, &entry, p, cp, piece, &mut out);
                        }
                        // out of the candidate's reach, or lost to the
                        // k-th member: the members stay
                        _ => out.push(KnnEntry {
                            members: entry.members.clone(),
                            interval: piece,
                        }),
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
        // the crossings are clamped into the piece, so `piece.lo` leads; a
        // crossing within EPS of `piece.hi` may have stood in for it, so
        // the last cut closes the piece exactly
        let last = cuts.len() - 1;
        cuts[last] = piece.hi;

        // consecutive cuts differ by more than EPS: no sub-piece is empty
        for w in cuts.windows(2) {
            let sub = Interval::new(w[0], w[1]);
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

    /// Merges adjacent entries with identical member lists (footnote 6 of
    /// the paper). `buf` receives the merged list, then swaps with the
    /// entry storage — no allocation when `buf` has capacity.
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
        check_cover(self.entries.iter().map(|e| e.interval), self.qlen)
    }

    /// Corrupted-fixture hook: forces a cover gap by pretending the query
    /// segment is longer than the entries actually cover.
    #[cfg(all(test, feature = "sanitize-invariants"))]
    pub(crate) fn force_qlen_for_test(&mut self, qlen: f64) {
        self.qlen = qlen;
    }
}

fn same_members(a: &[Member], b: &[Member]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.point.id == y.point.id && x.cp.same_as(&y.cp))
}

/// Stitches the result lists of consecutive pieces of one polyline — the
/// legs of a route, in order — into one list over cumulative arclength.
/// Each piece comes with its span `[offset, end]` and its entries over its
/// own parameter `[0, end − offset]`.
///
/// Every interval is re-based onto the running cursor, so per-piece float
/// drift at a joint (a cover ending at `len ± 1e-9`) snaps instead of
/// leaving a gap or an overlap, and a piece's last entry closes exactly at
/// its span's end. Adjacent entries merge only when their members and
/// control points are equal, so every stitched entry keeps the control
/// points its distances come from.
pub(crate) fn stitch(
    k: usize,
    pieces: impl IntoIterator<Item = (Interval, Vec<KnnEntry>)>,
) -> KnnResultList {
    let mut entries: Vec<KnnEntry> = Vec::new();
    let mut cursor = 0.0;
    for (span, piece) in pieces {
        cursor = span.lo;
        let last = piece.len().saturating_sub(1);
        for (i, mut e) in piece.into_iter().enumerate() {
            let raw = span.lo + e.interval.hi;
            let hi = if i == last {
                span.hi
            } else {
                raw.clamp(cursor, span.hi)
            };
            // only genuine float drift may be absorbed; a piece that
            // under-covers its span is a kernel bug the stitch must not
            // paper over
            debug_assert!(
                (raw - hi).abs() <= 1e-6,
                "boundary {raw} re-based to {hi}: not drift"
            );
            match entries.last_mut() {
                Some(prev) if same_members(&prev.members, &e.members) => prev.interval.hi = hi,
                _ => {
                    e.interval = Interval { lo: cursor, hi };
                    entries.push(e);
                }
            }
            cursor = hi;
        }
    }
    KnnResultList {
        entries,
        k,
        qlen: cursor,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conn_geom::Point;

    fn q() -> Segment {
        Segment::new(Point::new(0.0, 0.0), Point::new(100.0, 0.0))
    }

    /// The CONN list: k = 1 over `q()`.
    fn conn_list() -> KnnResultList {
        KnnResultList::new(100.0, 1)
    }

    fn update(rl: &mut KnnResultList, p: DataPoint, cpl: &ControlPointList) {
        rl.update_with(
            &q(),
            p,
            cpl,
            &ConnConfig::default(),
            &mut RluScratch::default(),
        );
    }

    /// The nearest member's id at `t`, if any.
    fn nn_at(rl: &KnnResultList, t: f64) -> Option<u32> {
        rl.nn_at(t, q().at(t)).map(|(p, _)| p.id)
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
        let mut rl = conn_list();
        assert_eq!(rl.rlmax(&q(), &[]), f64::INFINITY);
        let p = DataPoint::new(0, Point::new(30.0, 20.0));
        update(&mut rl, p, &direct_cpl(p.pos));
        rl.check_cover().unwrap();
        assert_eq!(rl.entries().len(), 1);
        assert_eq!(rl.entries()[0].members[0].point.id, 0);
        assert!(rl.rlmax(&q(), &[]).is_finite());
    }

    #[test]
    fn second_point_splits_at_bisector() {
        let mut rl = conn_list();
        let a = DataPoint::new(0, Point::new(20.0, 10.0));
        let b = DataPoint::new(1, Point::new(80.0, 10.0));
        update(&mut rl, a, &direct_cpl(a.pos));
        update(&mut rl, b, &direct_cpl(b.pos));
        rl.check_cover().unwrap();
        assert_eq!(rl.entries().len(), 2);
        assert_eq!(nn_at(&rl, 10.0), Some(0));
        assert_eq!(nn_at(&rl, 90.0), Some(1));
        let boundary = rl.entries()[0].interval.hi;
        assert!((boundary - 50.0).abs() < 1e-6);
    }

    #[test]
    fn worse_point_changes_nothing() {
        let mut rl = conn_list();
        let a = DataPoint::new(0, Point::new(50.0, 5.0));
        let b = DataPoint::new(1, Point::new(50.0, 500.0));
        update(&mut rl, a, &direct_cpl(a.pos));
        let before = rl.entries().len();
        update(&mut rl, b, &direct_cpl(b.pos));
        assert_eq!(rl.entries().len(), before);
        assert_eq!(nn_at(&rl, 50.0), Some(0));
    }

    #[test]
    fn pocket_winner_creates_three_entries() {
        let cfg = ConnConfig::default();
        let mut rl = conn_list();
        // a is near the line but pays a base detour; b hovers mid-height
        let a = DataPoint::new(0, Point::new(50.0, 40.0));
        update(&mut rl, a, &direct_cpl(a.pos));
        // challenger with a tight pocket win around t=50
        let b = DataPoint::new(1, Point::new(50.0, 5.0));
        let mut cpl = ControlPointList::new(100.0);
        cpl.offer(
            &q(),
            ControlPoint::new(Point::new(50.0, 5.0), 20.0),
            &Interval::new(0.0, 100.0),
            &cfg,
        );
        update(&mut rl, b, &cpl);
        rl.check_cover().unwrap();
        // F_b(50) = 25 < F_a(50) = 40, but at the ends a wins
        assert_eq!(nn_at(&rl, 0.0), Some(0));
        assert_eq!(nn_at(&rl, 50.0), Some(1));
        assert_eq!(nn_at(&rl, 100.0), Some(0));
        assert_eq!(rl.entries().len(), 3);
    }

    #[test]
    fn partial_cpl_leaves_unreachable_region_alone() {
        let cfg = ConnConfig::default();
        let mut rl = conn_list();
        let a = DataPoint::new(0, Point::new(10.0, 10.0));
        // a's CPL covers only [0, 40]
        let mut cpl = ControlPointList::new(100.0);
        cpl.offer(
            &q(),
            ControlPoint::direct(a.pos),
            &Interval::new(0.0, 40.0),
            &cfg,
        );
        update(&mut rl, a, &cpl);
        rl.check_cover().unwrap();
        assert!(nn_at(&rl, 20.0).is_some());
        assert!(nn_at(&rl, 70.0).is_none());
        assert_eq!(rl.rlmax(&q(), &[]), f64::INFINITY);
        // an obstacle whose interior holds only part of the stretch leaves
        // the rest to wait for a member; one that holds all of it does not
        let part = Rect::new(60.0, -10.0, 120.0, 10.0);
        assert_eq!(rl.rlmax(&q(), &[part]), f64::INFINITY);
        let whole = Rect::new(40.0, -10.0, 120.0, 10.0);
        let want = a.pos.dist(Point::new(40.0, 0.0));
        assert!((rl.rlmax(&q(), &[part, whole]) - want).abs() < 1e-9);
    }

    #[test]
    fn rlmax_matches_manual_bound() {
        let mut rl = conn_list();
        let a = DataPoint::new(0, Point::new(30.0, 40.0));
        update(&mut rl, a, &direct_cpl(a.pos));
        let want = a.pos.dist(Point::new(100.0, 0.0)); // far endpoint
        assert!((rl.rlmax(&q(), &[]) - want).abs() < 1e-9);
    }

    #[test]
    fn merging_keeps_single_entry_for_same_cp() {
        let mut rl = conn_list();
        let a = DataPoint::new(0, Point::new(50.0, 10.0));
        update(&mut rl, a, &direct_cpl(a.pos));
        // updating with the same point again must not fragment the list
        update(&mut rl, a, &direct_cpl(a.pos));
        assert_eq!(rl.entries().len(), 1);
    }

    /// The stitch re-bases each piece onto its span: drift at a joint
    /// snaps onto the span's end, equal members merge across a joint, and
    /// the same point under another control point stays its own entry.
    #[test]
    fn stitch_snaps_drift_and_merges_only_equal_members() {
        let a = DataPoint::new(0, Point::new(50.0, 10.0));
        let b = DataPoint::new(1, Point::new(150.0, 10.0));
        let (cp_a, cp1) = (ControlPoint::direct(a.pos), ControlPoint::direct(b.pos));
        let cp2 = ControlPoint::new(Point::new(120.0, 30.0), 36.0);
        let entry = |point, cp, lo, hi| KnnEntry {
            members: vec![Member { point, cp }],
            interval: Interval::new(lo, hi),
        };
        let list = stitch(
            1,
            [
                // the first piece overshoots its length 100 by float drift
                (
                    Interval::new(0.0, 100.0),
                    vec![entry(a, cp_a, 0.0, 60.0), entry(b, cp1, 60.0, 100.0 + 3e-8)],
                ),
                // b under the same control point merges across the joint;
                // this piece undershoots its length 80
                (
                    Interval::new(100.0, 180.0),
                    vec![entry(b, cp1, 0.0, 30.0), entry(b, cp2, 30.0, 80.0 - 1e-9)],
                ),
                // b under another control point than the joint's last
                (Interval::new(180.0, 200.0), vec![entry(b, cp1, 0.0, 20.0)]),
            ],
        );
        list.check_cover().unwrap();
        let got: Vec<(u32, f64, f64)> = list
            .entries()
            .iter()
            .map(|e| (e.members[0].point.id, e.interval.lo, e.interval.hi))
            .collect();
        assert_eq!(
            got,
            [
                (0, 0.0, 60.0),
                (1, 60.0, 130.0),
                (1, 130.0, 180.0),
                (1, 180.0, 200.0)
            ]
        );
        assert!(list.entries()[2].members[0].cp.same_as(&cp2));
        assert!(list.entries()[3].members[0].cp.same_as(&cp1));
    }

    /// A crossing within EPS of a piece's upper end stands in for the end
    /// after dedup; the last sub-interval must still close at the end, so
    /// the cover stays exact bit for bit.
    #[test]
    fn crossing_next_to_a_piece_end_keeps_the_cover_exact() {
        // a and b tie at t0, inside the last EPS of q; b sits on q's line,
        // so Lemma 1 cannot skip the cut
        let t0 = 100.0 - EPS / 2.0;
        let a = DataPoint::new(0, Point::new(0.0, 10.0));
        let b = DataPoint::new(1, Point::new(t0 + (t0 * t0 + 100.0).sqrt(), 0.0));
        let mut rl = conn_list();
        update(&mut rl, a, &direct_cpl(a.pos));
        update(&mut rl, b, &direct_cpl(b.pos));
        let e = rl.entries();
        for w in e.windows(2) {
            assert_eq!(w[0].interval.hi.to_bits(), w[1].interval.lo.to_bits());
        }
        assert_eq!(e[0].interval.lo.to_bits(), 0.0f64.to_bits());
        assert_eq!(e[e.len() - 1].interval.hi.to_bits(), 100.0f64.to_bits());
        assert_eq!(nn_at(&rl, 50.0), Some(0));
    }
}
