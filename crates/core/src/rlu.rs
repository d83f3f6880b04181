//! The one lower envelope: the result list, RLU — Result List Update
//! (paper §4.3, Algorithm 3, in the `k`-member form of §4.5) — and the
//! control-point list CPLC builds (§4.2).
//!
//! The list partitions `q` into intervals, each holding an ordered set of
//! up to `k` members (`⟨ONNSᵢ, Rᵢ⟩` in the paper); every member carries the
//! control point its distance function `base + |cp − q(t)|` routes through.
//! CONN is the `k = 1` case, whose tuples are the paper's `⟨pᵢ, cpᵢ, Rᵢ⟩`,
//! and CPL(p) is p's own `k = 1` list, whose members are `p` under each of
//! its control points (`cpl.rs`).
//!
//! [`KnnResultList::offer`] is the one update. It offers a member over a
//! region of `q` and cuts each overlapped piece at every crossing between
//! the member's function and an incumbent's (the quadratic Split of §3,
//! Theorem 1), so the member order is constant within each interval.
//! Lemma 1 skips the cutting where the k-th member beats the newcomer over
//! the whole piece. CPLC offers each settled node on its region; RLU offers
//! each reached piece of `p`'s control-point list. The pruning bound is
//! `RLMAX = maxᵢ max(kth-dist(Rᵢ.l), kth-dist(Rᵢ.r))` (Lemma 2, and CPLC's
//! `CPLMAX` of Lemma 7 at `k = 1`), infinite while any interval holds fewer
//! than `k` members (footnotes 3 and 5).

#![expect(
    clippy::indexing_slicing,
    reason = "k-list slots are allocated up front; member indices are bounded by k"
)]

use conn_geom::{Interval, IntervalSet, Point, Rect, Segment, EPS};

use crate::config::ConnConfig;
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

    /// The same point under an interchangeable control point.
    fn same_as(&self, other: &Member) -> bool {
        self.point.id == other.point.id && self.cp.same_as(&other.cp)
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
        let mut waits = |e: &KnnEntry| {
            e.members.len() < self.k
                && !(e.members.is_empty()
                    && inside
                        .get_or_insert_with(|| self.interiors(q, obstacles))
                        .intervals()
                        .iter()
                        .any(|u| u.lo - EPS <= e.interval.lo && e.interval.hi <= u.hi + EPS))
        };
        if self.entries.iter().any(&mut waits) {
            return f64::INFINITY;
        }
        self.max_assigned_value(q)
    }

    /// The largest k-th-member value over the intervals that hold `k`
    /// members, 0 when none does: `RLMAX` without the ∞ of the others (the
    /// refinement loop's reload threshold).
    pub(crate) fn max_assigned_value(&self, q: &Segment) -> f64 {
        self.entries
            .iter()
            .filter_map(|e| Some(e.members.get(self.k - 1)?.cp.max_over(q, &e.interval)))
            .fold(0.0, f64::max)
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

    /// RLU — Algorithm 3: folds a data point into the list by offering
    /// every reached piece of `cpl`, the point's control-point list (its
    /// own `k = 1` list). A stretch the point cannot reach holds no member
    /// and is not offered: the members there stay.
    pub(crate) fn update_with(
        &mut self,
        q: &Segment,
        cpl: &KnnResultList,
        cfg: &ConnConfig,
        scratch: &mut RluScratch,
    ) {
        for e in cpl.entries() {
            if let Some(m) = e.members.first() {
                self.offer(q, *m, &e.interval, cfg, scratch);
            }
        }
    }

    /// Offers `member` over `region`, rotating the list's storage through
    /// the workspace's `scratch`. An interval that overlaps the region is
    /// cut into its untouched left and right parts and the overlap, which
    /// `challenge` ranks the member into. The interval stays as it is when
    /// its k-th member is `member` itself (CPLC settling the same control
    /// point again) or beats it over the whole overlap (Lemma 1,
    /// Algorithm 3 line 7: it cannot enter the set anywhere there).
    pub(crate) fn offer(
        &mut self,
        q: &Segment,
        member: Member,
        region: &Interval,
        cfg: &ConnConfig,
        scratch: &mut RluScratch,
    ) {
        let mut old = std::mem::take(&mut self.entries);
        let mut out = std::mem::take(&mut scratch.knn);
        out.clear();
        out.reserve(old.len() + 2);
        for entry in old.drain(..) {
            let Some(o) = entry.interval.intersect(region) else {
                out.push(entry);
                continue;
            };
            // a part beside the overlap too short to hold an answer joins
            // it instead of leaving a gap
            let (lo, hi) = (entry.interval.lo, entry.interval.hi);
            let snap = |end: f64, to: f64| if (end - to).abs() <= EPS { to } else { end };
            let overlap = Interval::new(snap(o.lo, lo), snap(o.hi, hi));
            let holds = entry.members.get(self.k - 1).is_some_and(|kth| {
                kth.same_as(&member)
                    || (cfg.use_lemma1 && lemma1_incumbent_wins(q, &kth.cp, &member.cp, &overlap))
            });
            if holds {
                out.push(entry);
                continue;
            }
            if lo < overlap.lo {
                out.push(KnnEntry {
                    members: entry.members.clone(),
                    interval: Interval::new(lo, overlap.lo),
                });
            }
            self.challenge(q, &entry.members, member, overlap, &mut out);
            if overlap.hi < hi {
                out.push(KnnEntry {
                    members: entry.members,
                    interval: Interval::new(overlap.hi, hi),
                });
            }
        }
        self.entries = out;
        self.normalize_with(&mut scratch.knn2);
        scratch.knn = old; // recycle the pre-update storage
    }

    /// Ranks `member` into one piece held by `members`: cut at every
    /// crossing with a member, then rank the newcomer per sub-piece (an
    /// incumbent wins a tie).
    fn challenge(
        &self,
        q: &Segment,
        members: &[Member],
        member: Member,
        piece: Interval,
        out: &mut Vec<KnnEntry>,
    ) {
        let mut cuts: Vec<f64> = vec![piece.lo, piece.hi];
        for m in members {
            cuts.extend(crossing_params(q, &m.cp, &member.cp, &piece));
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
            let cand_v = member.cp.value(q, mid);
            // members are sorted by value at mid (order constant on sub)
            let rank = members.partition_point(|m| m.cp.value(q, mid) <= cand_v + EPS);
            let mut ranked = members.to_vec();
            if rank < self.k {
                ranked.insert(rank, member);
                ranked.truncate(self.k);
            }
            out.push(KnnEntry {
                members: ranked,
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
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.same_as(y))
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

    fn update(rl: &mut KnnResultList, cpl: &KnnResultList) {
        rl.update_with(
            &q(),
            cpl,
            &ConnConfig::default(),
            &mut RluScratch::default(),
        );
    }

    /// The nearest member's id at `t`, if any.
    fn nn_at(rl: &KnnResultList, t: f64) -> Option<u32> {
        rl.nn_at(t, q().at(t)).map(|(p, _)| p.id)
    }

    /// `p`'s control-point list (its k = 1 list) with `cp` in charge of
    /// `region` and the rest unreached.
    fn cpl(p: DataPoint, cp: ControlPoint, region: Interval) -> KnnResultList {
        let mut cpl = conn_list();
        cpl.offer(
            &q(),
            Member { point: p, cp },
            &region,
            &ConnConfig::default(),
            &mut RluScratch::default(),
        );
        cpl
    }

    /// Builds a CPL whose single control point is the data point itself
    /// (free-space shortcut for tests).
    fn direct_cpl(p: DataPoint) -> KnnResultList {
        cpl(p, ControlPoint::direct(p.pos), Interval::new(0.0, 100.0))
    }

    #[test]
    fn first_point_takes_everything() {
        let mut rl = conn_list();
        assert_eq!(rl.rlmax(&q(), &[]), f64::INFINITY);
        let p = DataPoint::new(0, Point::new(30.0, 20.0));
        update(&mut rl, &direct_cpl(p));
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
        update(&mut rl, &direct_cpl(a));
        update(&mut rl, &direct_cpl(b));
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
        update(&mut rl, &direct_cpl(a));
        let before = rl.entries().len();
        update(&mut rl, &direct_cpl(b));
        assert_eq!(rl.entries().len(), before);
        assert_eq!(nn_at(&rl, 50.0), Some(0));
    }

    #[test]
    fn pocket_winner_creates_three_entries() {
        let mut rl = conn_list();
        // a is near the line but pays a base detour; b hovers mid-height
        let a = DataPoint::new(0, Point::new(50.0, 40.0));
        update(&mut rl, &direct_cpl(a));
        // challenger with a tight pocket win around t=50
        let b = DataPoint::new(1, Point::new(50.0, 5.0));
        let cpl = cpl(
            b,
            ControlPoint::new(Point::new(50.0, 5.0), 20.0),
            Interval::new(0.0, 100.0),
        );
        update(&mut rl, &cpl);
        rl.check_cover().unwrap();
        // F_b(50) = 25 < F_a(50) = 40, but at the ends a wins
        assert_eq!(nn_at(&rl, 0.0), Some(0));
        assert_eq!(nn_at(&rl, 50.0), Some(1));
        assert_eq!(nn_at(&rl, 100.0), Some(0));
        assert_eq!(rl.entries().len(), 3);
    }

    #[test]
    fn partial_cpl_leaves_unreachable_region_alone() {
        let mut rl = conn_list();
        let a = DataPoint::new(0, Point::new(10.0, 10.0));
        // a's CPL covers only [0, 40]
        let cpl = cpl(a, ControlPoint::direct(a.pos), Interval::new(0.0, 40.0));
        update(&mut rl, &cpl);
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
        update(&mut rl, &direct_cpl(a));
        let want = a.pos.dist(Point::new(100.0, 0.0)); // far endpoint
        assert!((rl.rlmax(&q(), &[]) - want).abs() < 1e-9);
    }

    #[test]
    fn merging_keeps_single_entry_for_same_cp() {
        let mut rl = conn_list();
        let a = DataPoint::new(0, Point::new(50.0, 10.0));
        update(&mut rl, &direct_cpl(a));
        // updating with the same point again must not fragment the list
        update(&mut rl, &direct_cpl(a));
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
        update(&mut rl, &direct_cpl(a));
        update(&mut rl, &direct_cpl(b));
        let e = rl.entries();
        for w in e.windows(2) {
            assert_eq!(w[0].interval.hi.to_bits(), w[1].interval.lo.to_bits());
        }
        assert_eq!(e[0].interval.lo.to_bits(), 0.0f64.to_bits());
        assert_eq!(e[e.len() - 1].interval.hi.to_bits(), 100.0f64.to_bits());
        assert_eq!(nn_at(&rl, 50.0), Some(0));
    }
}
