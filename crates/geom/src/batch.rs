//! Sight tests over rectangle lanes.
//!
//! The hottest operation of obstructed query processing is the obstacle
//! predicate [`Rect::blocks`]: "does this sight segment pass through this
//! rectangle's open interior?" (the paper's Def. 1). At paper scale a single
//! query asks it hundreds of thousands of times, nearly always of one sight
//! segment against several rectangles in a row. This module is the one form
//! every caller in the visibility substrate uses: a [`SegProbe`] hoists the
//! segment's share of the test once, then classifies rectangles one at a time
//! from four parallel coordinate lanes (`minx[] / miny[] / maxx[] / maxy[]`,
//! see [`RectLanes`]) and stops at the first blocker.
//!
//! [`Rect::blocks`] stays the reference: the probe runs its exact operation
//! sequence, so every verdict is bit-identical to it (pinned by the
//! proptests below). The obstacle grid's walks and the rotational plane
//! sweep both rest on that one equivalence.

use crate::approx::EPS;
use crate::rect::Rect;
use crate::segment::Segment;

/// Structure-of-arrays mirror of a rectangle set: one coordinate lane per
/// rectangle edge, all parallel and indexed by the rectangle's `u32` id.
///
/// This is the hot half of the obstacle store — candidate classification
/// streams over these four contiguous `f64` lanes instead of gathering
/// 32-byte `Rect` structs.
#[derive(Debug, Default, Clone)]
pub struct RectLanes {
    minx: Vec<f64>,
    miny: Vec<f64>,
    maxx: Vec<f64>,
    maxy: Vec<f64>,
}

impl RectLanes {
    /// Creates an empty lane set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds lanes from a rectangle slice (convenience for benches/tests).
    pub fn from_rects(rects: &[Rect]) -> Self {
        let mut lanes = Self::new();
        for r in rects {
            lanes.push(r);
        }
        lanes
    }

    /// Number of rectangles mirrored in the lanes.
    pub fn len(&self) -> usize {
        self.minx.len()
    }

    /// True when no rectangles are stored.
    pub fn is_empty(&self) -> bool {
        self.minx.is_empty()
    }

    /// Drops all rectangles, keeping the lane allocations.
    pub fn clear(&mut self) {
        self.minx.clear();
        self.miny.clear();
        self.maxx.clear();
        self.maxy.clear();
    }

    /// Appends one rectangle to all four lanes.
    pub fn push(&mut self, r: &Rect) {
        self.minx.push(r.min_x);
        self.miny.push(r.min_y);
        self.maxx.push(r.max_x);
        self.maxy.push(r.max_y);
    }

    /// Overwrites the rectangle at lane index `i` in place (no
    /// normalization). Live-scene removal uses this to collapse a
    /// tombstoned obstacle's lanes to a zero-area rectangle, which no
    /// sight test can classify as blocking.
    pub fn overwrite(&mut self, i: usize, r: &Rect) {
        self.minx[i] = r.min_x;
        self.miny[i] = r.min_y;
        self.maxx[i] = r.max_x;
        self.maxy[i] = r.max_y;
    }

    /// Reconstructs the rectangle at lane index `i` (no normalization — the
    /// lanes hold coordinates of already-normalized rectangles).
    pub fn rect(&self, i: usize) -> Rect {
        Rect {
            min_x: self.minx[i],
            min_y: self.miny[i],
            max_x: self.maxx[i],
            max_y: self.maxy[i],
        }
    }
}

/// Per-segment probe for repeated one-rect classifications against the same
/// sight segment: hoists the slab vector and segment length that the scalar
/// predicate [`Rect::blocks`] recomputes on every call. Verdicts are
/// identical to the scalar predicate.
#[derive(Debug, Clone, Copy)]
pub struct SegProbe {
    seg: Segment,
    seg_len: f64,
    p: [f64; 4],
}

impl SegProbe {
    /// Builds the probe: one length computation and one slab vector for
    /// every rectangle it will classify.
    pub fn new(s: &Segment) -> Self {
        let d = s.b - s.a;
        SegProbe {
            seg: *s,
            seg_len: s.len(),
            p: [-d.x, d.x, -d.y, d.y],
        }
    }

    /// Scalar early-exit classification of lane rect `k` — the exact
    /// operation sequence of [`Rect::clip_segment`] + [`Rect::blocks`]
    /// (clip, graze rejection, strict-interior midpoint test), with the
    /// shared per-segment work hoisted out. Verdict is identical to
    /// `lanes.rect(k).blocks(segment)`.
    #[inline]
    pub fn blocks(&self, lanes: &RectLanes, k: usize) -> bool {
        let (minx, miny) = (lanes.minx[k], lanes.miny[k]);
        let (maxx, maxy) = (lanes.maxx[k], lanes.maxy[k]);
        let a = self.seg.a;
        let q = [a.x - minx, maxx - a.x, a.y - miny, maxy - a.y];
        let mut t0 = 0.0_f64;
        let mut t1 = 1.0_f64;
        for (&pi, &qi) in self.p.iter().zip(&q) {
            if pi.abs() <= f64::MIN_POSITIVE {
                if qi < 0.0 {
                    return false; // parallel and outside this slab
                }
            } else {
                let r = qi / pi;
                if pi < 0.0 {
                    if r > t1 {
                        return false;
                    }
                    t0 = t0.max(r);
                } else {
                    if r < t0 {
                        return false;
                    }
                    t1 = t1.min(r);
                }
            }
        }
        if t0 > t1 {
            return false;
        }
        if (t1 - t0) * self.seg_len <= 2.0 * EPS {
            return false; // grazes a corner or a single wall point
        }
        let mid = a.lerp(self.seg.b, (t0 + t1) / 2.0);
        mid.x > minx + EPS && mid.x < maxx - EPS && mid.y > miny + EPS && mid.y < maxy - EPS
    }
}

/// True when any rect selected by `ids` blocks the sight segment:
/// `ids.iter().any(|id| rect.blocks(s))`, one early-exit [`SegProbe`] test
/// per rect — the test the obstacle grid's walks and the plane sweep run.
pub fn blocks_any(s: &Segment, lanes: &RectLanes, ids: &[u32]) -> bool {
    let probe = SegProbe::new(s);
    ids.iter().any(|&id| probe.blocks(lanes, id as usize))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::Point;
    use proptest::prelude::*;

    fn seg(ax: f64, ay: f64, bx: f64, by: f64) -> Segment {
        Segment::new(Point::new(ax, ay), Point::new(bx, by))
    }

    /// `blocks_any` against the scalar [`Rect::blocks`] reference: over the
    /// whole id set, and rect by rect, so a wrong verdict cannot hide behind
    /// another rect that blocks anyway.
    fn assert_verdicts_match(s: &Segment, lanes: &RectLanes, ids: &[u32]) {
        let scalar = |id: u32| lanes.rect(id as usize).blocks(s);
        assert_eq!(
            blocks_any(s, lanes, ids),
            ids.iter().any(|&id| scalar(id)),
            "segment {s:?}"
        );
        for &id in ids {
            assert_eq!(blocks_any(s, lanes, &[id]), scalar(id), "{s:?} vs {id}");
        }
    }

    #[test]
    fn lanes_round_trip() {
        let rects = [Rect::new(1.0, 2.0, 3.0, 4.0), Rect::new(0.0, 0.0, 9.0, 5.0)];
        let lanes = RectLanes::from_rects(&rects);
        assert_eq!(lanes.len(), 2);
        assert_eq!(lanes.rect(0), rects[0]);
        assert_eq!(lanes.rect(1), rects[1]);
    }

    #[test]
    fn batch_matches_scalar_on_curated_cases() {
        // crossing, grazing, sliding, disjoint, degenerate, axis-parallel
        let rects = [
            Rect::new(2.0, 2.0, 6.0, 5.0),
            Rect::new(0.0, 5.0, 10.0, 8.0),
            Rect::new(40.0, -10.0, 60.0, 10.0),
            Rect::new(7.0, 7.0, 7.0, 7.0), // zero-area
        ];
        let lanes = RectLanes::from_rects(&rects);
        let ids: Vec<u32> = (0..rects.len() as u32).collect();
        let segs = [
            seg(0.0, 3.0, 10.0, 3.0),
            seg(0.0, 5.0, 10.0, 5.0),      // slide along a wall
            seg(0.0, 3.0, 4.0, 7.0),       // corner graze
            seg(2.0, 3.0, 0.0, 3.0),       // endpoint on a wall, going away
            seg(5.0, 5.0, 5.0, 5.0),       // degenerate sight line
            seg(3.0, 0.0, 3.0, 100.0),     // vertical (parallel slabs active)
            seg(0.0, 120.0, 100.0, 120.0), // fully outside
        ];
        for s in &segs {
            assert_verdicts_match(s, &lanes, &ids);
        }
    }

    proptest! {
        /// Probe verdicts are identical to [`Rect::blocks`] on randomized
        /// rect sets and segments, including axis-aligned and
        /// near-degenerate geometry.
        #[test]
        fn prop_batch_bit_identical(
            rect_seeds in prop::collection::vec((0.0_f64..900.0, 0.0_f64..900.0, 0.0_f64..80.0, 0.0_f64..80.0), 1..40),
            ax in 0.0_f64..1000.0,
            ay in 0.0_f64..1000.0,
            bx in 0.0_f64..1000.0,
            by in 0.0_f64..1000.0,
            axis_snap in 0u8..4,
        ) {
            let rects: Vec<Rect> = rect_seeds
                .iter()
                .map(|&(x, y, w, h)| Rect::new(x, y, x + w, y + h))
                .collect();
            let lanes = RectLanes::from_rects(&rects);
            let ids: Vec<u32> = (0..rects.len() as u32).collect();
            // exercise the parallel-slab branch too
            let (bx, by) = match axis_snap {
                1 => (ax, by),      // vertical
                2 => (bx, ay),      // horizontal
                3 => (ax, ay),      // degenerate
                _ => (bx, by),
            };
            let s = seg(ax, ay, bx, by);
            assert_verdicts_match(&s, &lanes, &ids);
        }
    }
}
