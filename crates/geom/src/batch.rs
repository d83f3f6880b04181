//! Batched SoA sight tests over rectangle lanes.
//!
//! The hottest operation of obstructed query processing is the obstacle
//! predicate [`Rect::blocks`]: "does this sight segment pass through this
//! rectangle's open interior?". The scalar predicate is branchy and works on
//! one `Rect` (an AoS struct) at a time; at paper scale a single query asks
//! it tens of thousands of times. This module reshapes the test so N
//! candidate rectangles are classified per call over four parallel
//! coordinate lanes (`minx[] / miny[] / maxx[] / maxy[]`, see [`RectLanes`])
//! that the autovectorizer can chew on.
//!
//! # Why the batch can be branch-free *and* bit-identical
//!
//! For one segment against N rects, the Liang–Barsky slab vector
//! `p = [-d.x, d.x, -d.y, d.y]` depends only on the segment — it is a
//! *scalar* shared by every lane. Only the offset vector `q` varies per
//! rect, so the per-slab sign branches of the scalar code are uniform
//! across the whole batch and hoist out of the lane loop. The scalar
//! early-returns can be dropped without changing any verdict:
//!
//! * an early `None` when `p[i] < 0` fires on `r > t1`; the branch-free
//!   fold instead sets `t0 = t0.max(r) > t1`, and since `t0` only grows and
//!   `t1` only shrinks, the final `t0 <= t1` test rejects the lane exactly
//!   when the scalar code would have returned early (symmetrically for
//!   `p[i] > 0`);
//! * the parallel-slab case (`p[i].abs() <= f64::MIN_POSITIVE`) never
//!   divides — it only latches a per-lane miss flag when `q[i] < 0`.
//!
//! When no early return fires, both versions perform the identical sequence
//! of `max`/`min` folds in slab order, producing bit-identical `(t0, t1)`
//! and therefore bit-identical graze checks and midpoint verdicts. The
//! equivalence is pinned by the proptests below and by the vgraph-level
//! suites.
//!
//! The lane loops are plain loops over fixed-size chunks, written for the
//! autovectorizer; they are the reference semantics of the batched test.

use crate::approx::EPS;
use crate::point::Point;
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

/// Lane-batch width: candidates are classified in stack-resident chunks of
/// this many rects (4 cache lines per `f64` lane).
const CHUNK: usize = 32;

/// Candidate sets at or below this size take the scalar early-exit path in
/// [`blocks_any`]: for a handful of rects the per-rect early returns beat
/// the chunk setup (zeroing the `t0`/`t1`/`miss` lanes), while dense cells
/// amortize it. Verdicts are identical either way. Public so callers that
/// classify per cell (the obstacle grid) can make the same choice without
/// gathering a candidate list first.
pub const SMALL_BATCH: usize = 8;

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
    /// Builds the probe: one length computation and one slab vector for the
    /// whole batch of candidates.
    pub fn new(s: &Segment) -> Self {
        let d = s.b - s.a;
        SegProbe {
            seg: *s,
            seg_len: s.len(),
            p: [-d.x, d.x, -d.y, d.y],
        }
    }

    /// Scalar early-exit classification of lane rect `k` — the exact
    /// operation sequence of [`Rect::clip_segment`] + [`Rect::blocks`],
    /// with the shared per-segment work hoisted out. Verdict is identical
    /// to `lanes.rect(k).blocks(segment)`.
    #[inline]
    pub fn blocks(&self, lanes: &RectLanes, k: usize) -> bool {
        let q = [
            self.seg.a.x - lanes.minx[k],
            lanes.maxx[k] - self.seg.a.x,
            self.seg.a.y - lanes.miny[k],
            lanes.maxy[k] - self.seg.a.y,
        ];
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
        finish_lane(
            &self.seg,
            self.seg_len,
            t0,
            t1,
            false,
            lanes.minx[k],
            lanes.miny[k],
            lanes.maxx[k],
            lanes.maxy[k],
        )
    }
}

/// Branch-free Liang–Barsky fold over one chunk: `p` is the shared slab
/// vector of the segment, `q` the per-lane offset vectors in slab order.
/// On return, lane `j` missed the (closed) rect iff
/// `miss[j] || t0[j] > t1[j]`; otherwise `(t0[j], t1[j])` is bit-identical
/// to [`Rect::clip_segment`]'s result.
#[inline]
fn clip_lanes(
    p: &[f64; 4],
    q: &[[f64; CHUNK]; 4],
    n: usize,
    t0: &mut [f64; CHUNK],
    t1: &mut [f64; CHUNK],
    miss: &mut [bool; CHUNK],
) {
    for slab in 0..4 {
        let pi = p[slab];
        let qs = &q[slab];
        if pi.abs() <= f64::MIN_POSITIVE {
            for j in 0..n {
                miss[j] |= qs[j] < 0.0;
            }
        } else if pi < 0.0 {
            for j in 0..n {
                t0[j] = t0[j].max(qs[j] / pi);
            }
        } else {
            for j in 0..n {
                t1[j] = t1[j].min(qs[j] / pi);
            }
        }
    }
}

/// Scalar tail of the blocking verdict for one surviving lane — the exact
/// operation sequence of [`Rect::blocks`] after its clip: graze rejection,
/// then the strict-interior midpoint test.
#[inline]
#[allow(clippy::too_many_arguments)] // unpacked lanes; bundling would re-create the AoS struct this module removes
fn finish_lane(
    s: &Segment,
    seg_len: f64,
    t0: f64,
    t1: f64,
    miss: bool,
    minx: f64,
    miny: f64,
    maxx: f64,
    maxy: f64,
) -> bool {
    if miss || t0 > t1 {
        return false;
    }
    if (t1 - t0) * seg_len <= 2.0 * EPS {
        return false; // grazes a corner or a single wall point
    }
    let mid = s.a.lerp(s.b, (t0 + t1) / 2.0);
    mid.x > minx + EPS && mid.x < maxx - EPS && mid.y > miny + EPS && mid.y < maxy - EPS
}

/// True when any rect selected by `ids` blocks the sight segment —
/// the batched form of `ids.iter().any(|id| rect.blocks(s))`. Small id sets
/// (sparse grid cells) take a per-rect scalar early-exit path; larger sets
/// run the chunked lane kernel with chunk-level early exit.
pub fn blocks_any(s: &Segment, lanes: &RectLanes, ids: &[u32]) -> bool {
    if ids.len() <= SMALL_BATCH {
        let probe = SegProbe::new(s);
        return ids.iter().any(|&id| probe.blocks(lanes, id as usize));
    }
    let seg_len = s.len();
    let d = s.b - s.a;
    let p = [-d.x, d.x, -d.y, d.y];
    let (ax, ay) = (s.a.x, s.a.y);
    let mut q = [[0.0_f64; CHUNK]; 4];
    for chunk in ids.chunks(CHUNK) {
        let n = chunk.len();
        for (j, &id) in chunk.iter().enumerate() {
            let k = id as usize;
            q[0][j] = ax - lanes.minx[k];
            q[1][j] = lanes.maxx[k] - ax;
            q[2][j] = ay - lanes.miny[k];
            q[3][j] = lanes.maxy[k] - ay;
        }
        let mut t0 = [0.0_f64; CHUNK];
        let mut t1 = [1.0_f64; CHUNK];
        let mut miss = [false; CHUNK];
        clip_lanes(&p, &q, n, &mut t0, &mut t1, &mut miss);
        for (j, &id) in chunk.iter().enumerate() {
            let k = id as usize;
            if finish_lane(
                s,
                seg_len,
                t0[j],
                t1[j],
                miss[j],
                lanes.minx[k],
                lanes.miny[k],
                lanes.maxx[k],
                lanes.maxy[k],
            ) {
                return true;
            }
        }
    }
    false
}

/// Fan-batched form of the visible-region midpoint classification: for each
/// `m` in `mids`, verdict `j` equals
/// `r.blocks(&Segment::new(origin, mids[j]))` — one obstacle against N
/// sight segments sharing an origin. Here the slab offset vector `q` is the
/// shared scalar (it depends only on `origin` and `r`) and the direction
/// vector varies per lane, so the fold keeps its per-lane branches but
/// hoists all rect loads and offset arithmetic out of the loop.
///
/// Under the `sanitize-invariants` runtime switch this takes the literal
/// scalar path (constructing each sight segment) so the constructor audits
/// fire exactly as in unbatched code.
pub fn blocks_fan(r: &Rect, origin: Point, mids: &[Point], out: &mut Vec<bool>) {
    out.clear();
    out.reserve(mids.len());
    if crate::sanitize::enabled() {
        for m in mids {
            out.push(r.blocks(&Segment::new(origin, *m)));
        }
        return;
    }
    let q = [
        origin.x - r.min_x,
        r.max_x - origin.x,
        origin.y - r.min_y,
        r.max_y - origin.y,
    ];
    for m in mids {
        let d = *m - origin;
        let p = [-d.x, d.x, -d.y, d.y];
        let mut t0 = 0.0_f64;
        let mut t1 = 1.0_f64;
        let mut hit = true;
        for i in 0..4 {
            if p[i].abs() <= f64::MIN_POSITIVE {
                if q[i] < 0.0 {
                    hit = false;
                    break;
                }
            } else {
                let rr = q[i] / p[i];
                if p[i] < 0.0 {
                    if rr > t1 {
                        hit = false;
                        break;
                    }
                    t0 = t0.max(rr);
                } else {
                    if rr < t0 {
                        hit = false;
                        break;
                    }
                    t1 = t1.min(rr);
                }
            }
        }
        if !hit || t0 > t1 {
            out.push(false);
            continue;
        }
        let seg_len = origin.dist(*m);
        if (t1 - t0) * seg_len <= 2.0 * EPS {
            out.push(false);
            continue;
        }
        let mid = origin.lerp(*m, (t0 + t1) / 2.0);
        out.push(r.strictly_contains(mid));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn seg(ax: f64, ay: f64, bx: f64, by: f64) -> Segment {
        Segment::new(Point::new(ax, ay), Point::new(bx, by))
    }

    /// `blocks_any` against the scalar [`Rect::blocks`] reference: over the
    /// whole id set, and rect by rect through both of its paths (one id
    /// takes the scalar early-exit path, `SMALL_BATCH + 1` copies of it the
    /// lane kernel), so a wrong lane verdict cannot hide behind another
    /// rect that blocks anyway.
    fn assert_verdicts_match(s: &Segment, lanes: &RectLanes, ids: &[u32]) {
        let scalar = |id: u32| lanes.rect(id as usize).blocks(s);
        assert_eq!(
            blocks_any(s, lanes, ids),
            ids.iter().any(|&id| scalar(id)),
            "segment {s:?}"
        );
        for &id in ids {
            assert_eq!(blocks_any(s, lanes, &[id]), scalar(id), "{s:?} vs {id}");
            let many = [id; SMALL_BATCH + 1];
            assert_eq!(blocks_any(s, lanes, &many), scalar(id), "{s:?} vs {id}");
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

    #[test]
    fn fan_matches_scalar_blocks() {
        let r = Rect::new(45.0, 40.0, 55.0, 60.0);
        let vp = Point::new(50.0, 100.0);
        let q = seg(0.0, 0.0, 100.0, 0.0);
        let mids: Vec<Point> = (0..=50).map(|i| q.at(2.0 * i as f64)).collect();
        let mut out = Vec::new();
        blocks_fan(&r, vp, &mids, &mut out);
        for (j, m) in mids.iter().enumerate() {
            assert_eq!(
                out[j],
                r.blocks(&Segment::new(vp, *m)),
                "midpoint {j} at {m:?}"
            );
        }
    }

    proptest! {
        /// Batched verdicts are identical to per-rect scalar verdicts on
        /// randomized rect sets and segments, including axis-aligned and
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
            // exercise the parallel-slab lanes too
            let (bx, by) = match axis_snap {
                1 => (ax, by),      // vertical
                2 => (bx, ay),      // horizontal
                3 => (ax, ay),      // degenerate
                _ => (bx, by),
            };
            let s = seg(ax, ay, bx, by);
            assert_verdicts_match(&s, &lanes, &ids);
        }

        /// Fan-batched midpoint classification is identical to scalar
        /// per-midpoint [`Rect::blocks`] calls.
        #[test]
        fn prop_fan_bit_identical(
            rx in 0.0_f64..900.0,
            ry in 0.0_f64..900.0,
            rw in 0.0_f64..100.0,
            rh in 0.0_f64..100.0,
            ox in 0.0_f64..1000.0,
            oy in 0.0_f64..1000.0,
            mids_raw in prop::collection::vec((0.0_f64..1000.0, 0.0_f64..1000.0), 1..40),
        ) {
            let r = Rect::new(rx, ry, rx + rw, ry + rh);
            let origin = Point::new(ox, oy);
            let mids: Vec<Point> = mids_raw.iter().map(|&(x, y)| Point::new(x, y)).collect();
            let mut out = Vec::new();
            blocks_fan(&r, origin, &mids, &mut out);
            let scalar: Vec<bool> = mids
                .iter()
                .map(|m| r.blocks(&Segment::new(origin, *m)))
                .collect();
            prop_assert_eq!(out, scalar);
        }
    }
}
