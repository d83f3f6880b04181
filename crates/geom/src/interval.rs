//! Interval algebra over the arclength parameter of a query segment.
//!
//! Visible regions (Def. 2), control-point lists (Def. 9) and result lists
//! (Def. 6) are all partitions of — or subsets of — `q`'s parameter range
//! `[0, len]`. [`IntervalSet`] keeps a sorted list of disjoint intervals and
//! provides the union/subtract/intersect operations the CPLC and RLU
//! algorithms are built from.

use crate::approx::EPS;

/// A closed interval `[lo, hi]` of the segment parameter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Lower bound of the parameter range.
    pub lo: f64,
    /// Upper bound of the parameter range.
    pub hi: f64,
}

impl Interval {
    /// Creates an interval; swaps the bounds if given in reverse.
    #[inline]
    pub fn new(lo: f64, hi: f64) -> Self {
        if lo <= hi {
            Interval { lo, hi }
        } else {
            Interval { lo: hi, hi: lo }
        }
    }

    /// Interval length `hi - lo`.
    #[inline]
    pub fn len(&self) -> f64 {
        self.hi - self.lo
    }

    /// Intervals shorter than [`EPS`] carry no query answer and are dropped
    /// by set normalization.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() <= EPS
    }

    /// True when `t` lies inside the interval (with [`EPS`] slack).
    #[inline]
    pub fn contains(&self, t: f64) -> bool {
        t >= self.lo - EPS && t <= self.hi + EPS
    }

    /// Midpoint of the interval.
    #[inline]
    pub fn midpoint(&self) -> f64 {
        (self.lo + self.hi) / 2.0
    }

    /// Intersection with `other`, or `None` when (essentially) disjoint.
    #[inline]
    pub fn intersect(&self, other: &Interval) -> Option<Interval> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        (hi - lo > EPS).then_some(Interval { lo, hi })
    }

    /// Set difference `self − other` as 0, 1, or 2 pieces.
    pub fn subtract(&self, other: &Interval) -> Vec<Interval> {
        let mut out = Vec::with_capacity(2);
        let left = Interval::new(self.lo, self.hi.min(other.lo));
        if !left.is_empty() && left.lo < other.lo {
            out.push(left);
        }
        let right = Interval::new(self.lo.max(other.hi), self.hi);
        if !right.is_empty() && right.hi > other.hi {
            out.push(right);
        }
        // `other` fully covers `self` → empty; disjoint → `self` survives via
        // one of the two pieces above (the other is empty).
        if out.is_empty() && self.intersect(other).is_none() && !self.is_empty() {
            out.push(*self);
        }
        out
    }
}

/// A sorted list of disjoint, non-empty intervals.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IntervalSet {
    ivs: Vec<Interval>,
}

impl IntervalSet {
    /// The empty set.
    #[inline]
    pub fn empty() -> Self {
        IntervalSet { ivs: Vec::new() }
    }

    /// A set holding a single interval (or empty if the interval is empty).
    pub fn single(iv: Interval) -> Self {
        let mut s = IntervalSet::empty();
        if !iv.is_empty() {
            s.ivs.push(iv);
        }
        s
    }

    /// Builds a set from arbitrary intervals, normalizing as needed.
    pub fn from_intervals(mut ivs: Vec<Interval>) -> Self {
        ivs.retain(|iv| !iv.is_empty());
        ivs.sort_by(|a, b| a.lo.total_cmp(&b.lo));
        let mut out: Vec<Interval> = Vec::with_capacity(ivs.len());
        for iv in ivs {
            match out.last_mut() {
                Some(last) if iv.lo <= last.hi + EPS => last.hi = last.hi.max(iv.hi),
                _ => out.push(iv),
            }
        }
        IntervalSet { ivs: out }
    }

    /// True when the set holds no intervals.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ivs.is_empty()
    }

    /// The intervals, sorted and disjoint.
    #[inline]
    pub fn intervals(&self) -> &[Interval] {
        &self.ivs
    }

    /// Sum of the interval lengths.
    pub fn total_len(&self) -> f64 {
        self.ivs.iter().map(Interval::len).sum()
    }

    /// Membership test.
    pub fn contains(&self, t: f64) -> bool {
        // Sets are tiny (a handful of shadow gaps); linear scan beats a
        // binary search here.
        self.ivs.iter().any(|iv| iv.contains(t))
    }

    /// Removes a single interval from the set.
    pub fn subtract_interval(&mut self, iv: &Interval) {
        if iv.is_empty() {
            return;
        }
        let mut out = Vec::with_capacity(self.ivs.len() + 1);
        for cur in &self.ivs {
            out.extend(cur.subtract(iv));
        }
        self.ivs = out;
        self.normalize();
    }

    /// `self − other` (element-wise subtraction of every interval).
    pub fn subtract(&self, other: &IntervalSet) -> IntervalSet {
        let mut acc = self.clone();
        for iv in &other.ivs {
            acc.subtract_interval(iv);
        }
        acc
    }

    /// `self ∩ other`.
    pub fn intersect(&self, other: &IntervalSet) -> IntervalSet {
        let mut out = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < self.ivs.len() && j < other.ivs.len() {
            if let Some(iv) = self.ivs[i].intersect(&other.ivs[j]) {
                out.push(iv);
            }
            if self.ivs[i].hi < other.ivs[j].hi {
                i += 1;
            } else {
                j += 1;
            }
        }
        IntervalSet { ivs: out }
    }

    /// Intersection with a single interval.
    pub fn intersect_interval(&self, iv: &Interval) -> IntervalSet {
        IntervalSet {
            ivs: self.ivs.iter().filter_map(|c| c.intersect(iv)).collect(),
        }
    }

    /// Complement within `[0, len]`.
    pub fn complement(&self, len: f64) -> IntervalSet {
        let mut out = Vec::with_capacity(self.ivs.len() + 1);
        let mut cursor = 0.0;
        for iv in &self.ivs {
            let gap = Interval::new(cursor, iv.lo.min(len));
            if !gap.is_empty() {
                out.push(gap);
            }
            cursor = cursor.max(iv.hi);
        }
        let tail = Interval::new(cursor.min(len), len);
        if !tail.is_empty() {
            out.push(tail);
        }
        IntervalSet { ivs: out }
    }

    fn normalize(&mut self) {
        *self = IntervalSet::from_intervals(std::mem::take(&mut self.ivs));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(lo: f64, hi: f64) -> Interval {
        Interval::new(lo, hi)
    }

    #[test]
    fn interval_basics() {
        let a = iv(2.0, 5.0);
        assert_eq!(a.len(), 3.0);
        assert!(a.contains(2.0) && a.contains(5.0) && a.contains(3.3));
        assert!(!a.contains(5.5));
        assert_eq!(iv(5.0, 2.0), a, "reversed bounds normalize");
    }

    #[test]
    fn interval_intersection() {
        assert_eq!(iv(0.0, 4.0).intersect(&iv(2.0, 6.0)), Some(iv(2.0, 4.0)));
        assert_eq!(iv(0.0, 2.0).intersect(&iv(3.0, 4.0)), None);
        // touching only: empty
        assert_eq!(iv(0.0, 2.0).intersect(&iv(2.0, 4.0)), None);
    }

    #[test]
    fn interval_subtract_middle() {
        let pieces = iv(0.0, 10.0).subtract(&iv(3.0, 4.0));
        assert_eq!(pieces, vec![iv(0.0, 3.0), iv(4.0, 10.0)]);
    }

    #[test]
    fn interval_subtract_edges_and_cover() {
        assert_eq!(iv(0.0, 10.0).subtract(&iv(0.0, 4.0)), vec![iv(4.0, 10.0)]);
        assert_eq!(iv(0.0, 10.0).subtract(&iv(6.0, 10.0)), vec![iv(0.0, 6.0)]);
        assert!(iv(2.0, 4.0).subtract(&iv(0.0, 10.0)).is_empty());
        assert_eq!(iv(0.0, 1.0).subtract(&iv(5.0, 6.0)), vec![iv(0.0, 1.0)]);
    }

    #[test]
    fn set_from_intervals_merges_overlaps() {
        let s = IntervalSet::from_intervals(vec![iv(5.0, 7.0), iv(0.0, 2.0), iv(1.0, 3.0)]);
        assert_eq!(s.intervals(), &[iv(0.0, 3.0), iv(5.0, 7.0)]);
        assert_eq!(s.total_len(), 5.0);
    }

    #[test]
    fn set_subtract_and_complement() {
        let mut s = IntervalSet::single(iv(0.0, 10.0));
        s.subtract_interval(&iv(2.0, 3.0));
        s.subtract_interval(&iv(5.0, 6.0));
        assert_eq!(s.intervals(), &[iv(0.0, 2.0), iv(3.0, 5.0), iv(6.0, 10.0)]);
        let c = s.complement(10.0);
        assert_eq!(c.intervals(), &[iv(2.0, 3.0), iv(5.0, 6.0)]);
        // complement twice = original
        assert_eq!(c.complement(10.0), s);
    }

    #[test]
    fn set_intersection() {
        let a = IntervalSet::from_intervals(vec![iv(0.0, 4.0), iv(6.0, 10.0)]);
        let b = IntervalSet::from_intervals(vec![iv(3.0, 7.0), iv(9.0, 12.0)]);
        let i = a.intersect(&b);
        assert_eq!(i.intervals(), &[iv(3.0, 4.0), iv(6.0, 7.0), iv(9.0, 10.0)]);
    }

    #[test]
    fn empty_set_behaviour() {
        let e = IntervalSet::empty();
        assert!(e.is_empty());
        assert_eq!(e.total_len(), 0.0);
        assert_eq!(e.complement(5.0).intervals(), &[iv(0.0, 5.0)]);
        assert!(e.intersect(&IntervalSet::single(iv(0.0, 1.0))).is_empty());
    }
}
