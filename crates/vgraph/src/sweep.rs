//! Rotational plane-sweep visibility for radius-bounded cache builds.
//!
//! Building a node's adjacency cache asks one question per candidate
//! corner: "does any obstacle block the sight line pivot → candidate?".
//! The grid answers it with an independent cell walk per candidate —
//! `O(candidates × cells-per-walk)` rect tests, the dominant cost of
//! first-touch cache builds at paper scale. This module answers all of
//! them with **one angular sweep around the pivot**: every obstacle
//! contributes a *start* and *end* event bounding the angular interval it
//! subtends, every candidate contributes one event at its own direction,
//! and a distance-ordered active set makes each candidate's verdict a
//! front lookup — `O((rects + candidates) · log)` overall, and far fewer
//! events than that once the rectangles hidden behind nearer ones are
//! culled (below).
//!
//! # Bit-identical by construction
//!
//! The sweep never decides visibility by itself. It is a **conservative
//! filter**: the angular interval of each rectangle is widened outward by
//! `WIDEN` radians (orders of magnitude more than any direction-
//! computation rounding), the active set is cut at the candidate's
//! distance plus [`EPS`] slack, and rectangles touching or containing the
//! pivot bypass the filter entirely (see `NEAR_PIVOT`). Every rectangle
//! that survives the filter is then classified by the **exact** scalar
//! probe ([`SegProbe::blocks`], verdict-identical to [`conn_geom::Rect::blocks`]).
//! A false *inclusion* therefore costs one redundant exact test; a false
//! *exclusion* is impossible for a truly blocking rectangle:
//!
//! * blocking requires a clipped sub-segment longer than `2·EPS` whose
//!   midpoint lies in the rectangle's interior with `EPS` clearance, so a
//!   blocker's true min-distance from the pivot is below the candidate
//!   distance by at least `EPS` — far more than the ~1e-12 rounding of
//!   the computed min-distance, so the distance cut keeps it;
//! * that interior midpoint also puts the sight ray strictly inside the
//!   rectangle's subtended angular interval with margin `≥ EPS/dist`
//!   radians, while every direction we compute (corner extremes, the
//!   candidate ray, the pseudo-angle keys) is accurate to well under
//!   `WIDEN/100` radians for geometry the `NEAR_PIVOT` floor admits —
//!   so the widened interval always contains the candidate event;
//! * rectangles thinner than `2·EPS` on either axis cannot strictly
//!   contain any midpoint and are dropped outright — they can never
//!   block anything.
//!
//! # Front to back: the occlusion cull
//!
//! At paper scale most of what a row gathers is hidden: a swept build
//! hands in ~190 candidates and ~120 rectangles, and nine candidates in
//! ten end up blocked. Sorting and activating the events of rectangles
//! that lie behind nearer ones was most of the sweep's cost, so before any
//! event is created the rectangles are visited **in ascending
//! min-distance** against
//! a fixed angular depth buffer (`DEPTH_BINS` equal steps of the
//! pseudo-angle; per bin the smallest farthest-corner distance of a
//! rectangle whose interval covers the whole bin, and that rectangle as the
//! bin's *witness* — every ray of the bin has passed through the witness by
//! that distance):
//!
//! * a rectangle whose widened interval lies wholly in bins closed nearer
//!   than its own min-distance emits **no start / end event** (84 % of them
//!   on the ledger's `continuous` workload);
//! * a candidate whose bin is closed nearer than its distance becomes no
//!   event either (90 % of them): one exact probe against the witness
//!   certifies "blocked", and if that probe says "not blocked" the candidate
//!   is decided exactly against **every** rectangle of `rect_ids`.
//!
//! A cull is therefore only ever a hint, and verdicts stay exact by
//! construction. The hint route ends in an exact "blocked" by a member of
//! `rect_ids` or in the full scalar test. For a *swept* candidate the
//! filter argument above needs every rectangle that blocks it to be in the
//! sweep, and it is: a rectangle `R` that blocks candidate `c` has `c`'s
//! event inside its widened interval — hence `c`'s bin among its own, the
//! bin index being monotone in the key — and a min-distance below `c`'s
//! distance. Had `R` been culled, that bin was closed nearer than `R`'s
//! min-distance when `R` was visited; bins only ever close nearer, and
//! candidates are routed after the last rectangle, so the bin is closed
//! nearer than `c`'s distance and `c` took the hint route, not the sweep.
//! Which bins a rectangle closes (the two partly covered end bins are left
//! out) and at what distance is thus a matter of cost alone — no refuted
//! hint was seen in 24 M hints on `continuous`.
//!
//! # Determinism
//!
//! Events are ordered by a precomputed **pseudo-angle** scalar (the
//! "diamond angle": monotone in true angle over `[0, 2π)`, no trig),
//! compared through [`OrdF64`] with kind, distance and id tie-breakers —
//! a transitive NaN-free total order, so the event schedule is a pure
//! function of the input set regardless of sort algorithm; the front-to-
//! back visit orders rectangles by `(min-distance, id)` the same way.
//! Wrap-around at the sweep origin (+x axis) is handled by pre-activating
//! every rectangle whose start event sorts *after* its end event.

#![expect(
    clippy::indexing_slicing,
    reason = "event ids are loop indices produced by this module and lane ids come from the caller's candidate superset, both in range by construction"
)]

use conn_geom::{OrdF64, Point, RectLanes, SegProbe, Segment, EPS};
use std::cmp::Ordering;

/// Outward angular widening (radians) applied to each rectangle's
/// subtended interval. Dominates every direction rounding error the
/// [`NEAR_PIVOT`] floor admits by ≥ two orders of magnitude; false
/// inclusions only cost a redundant exact test.
const WIDEN: f64 = 1e-6;

/// Rectangles whose min-distance from the pivot is at or below this are
/// *always active*: they are exact-tested against every candidate instead
/// of entering the angular filter. Covers the pivot being a rectangle
/// corner (every obstacle-vertex pivot), rectangles sharing that corner,
/// and near-tangent geometry where subtended-angle rounding blows up.
const NEAR_PIVOT: f64 = 1e-3;

/// Below this many candidates a build sticks to per-candidate probes in
/// [`SweepMode::Auto`]: grid walks are linear in the candidate count, the
/// sweep pays a pass over every rectangle of the window first. The
/// constant dates from a fixed 192-rect micro-benchmark of the sweep
/// before its occlusion cull (walks ahead below ~100 candidates, break-even
/// at 130–250) and was placed below that because in production the
/// window's rect count grows with the candidate count. On the ledger's
/// `continuous` workload (paper scale, seed 2009, bitangent rows) 82 % of
/// row builds sweep, averaging 192 candidates (210 from a corner, 124 from
/// a point node) against 119 rectangles meeting the pivot's tangent
/// quadrants; the 18 % under the threshold average 33 candidates — 4 % of
/// all candidates. Repairs never sweep (3 of 150 994 did, before their
/// sweep branch was deleted).
///
/// **Measured, kept.** A copy of commit `b15b642` that swept every row
/// build (the threshold at 0), against that commit, 6 alternating pairs
/// per ledger workload at paper scale on 2 cores: `serve_mix` ops/s
/// 155.1 → 144.7 (−6.7 %, better in 1 of 6 pairs, beyond the 5.5 %
/// quartile spread of the kept threshold's runs; ONN 0.129 → 0.160 ms,
/// odist + route +10 %); `point_families` range 21.2 → 19.7 ms but ONN
/// +5.6 %; `continuous` +1.8 %. Sweeping everything cut traced sight
/// tests per op by 15 / 49 / 17 / 14 % (`continuous` / `point_families` /
/// `serve_mix` / `live_churn`, seed 2009) and raised sweep events by
/// 16 / 74 / 17 / 7 %: the sweep's fixed cost loses on the small builds
/// of the point families. ROADMAP item 8 owns the constant.
///
/// Walk-only loses too: commit `3eecc20` with [`SweepMode::Never`] as the
/// default, ledger `continuous`, seed 2009, 2 alternating pairs against
/// that commit: `fam1_mid_ms` 10.5 / 11.2 → 14.4 / 13.4, `fam2_mid_ms`
/// 29.1 / 30.0 → 36.3 / 34.6, `ops_per_s` 66.3 / 61.8 → 51.7 / 54.6. So the
/// sweep stays until cutting `q` (ROADMAP item 13(a)) shrinks the builds.
pub(crate) const AUTO_MIN_CANDIDATES: usize = 48;

/// When the plane-sweep replaces per-candidate grid walks during
/// adjacency-cache construction. Verdicts (and hence CSR edge lists) are
/// identical in every mode; only the work to reach them changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SweepMode {
    /// Sweep when the candidate set is large enough to amortize the event
    /// sort (`AUTO_MIN_CANDIDATES`), per-candidate probes below.
    #[default]
    Auto,
    /// Sweep every cache build that has obstacles to filter.
    Always,
    /// Never sweep — per-candidate grid walks only (the pre-sweep
    /// behavior, byte-for-byte).
    Never,
}

impl SweepMode {
    /// Does a build with this many candidates use the sweep?
    #[inline]
    pub fn wants_sweep(self, candidates: usize) -> bool {
        match self {
            SweepMode::Auto => candidates >= AUTO_MIN_CANDIDATES,
            SweepMode::Always => true,
            SweepMode::Never => false,
        }
    }
}

/// Event kinds, in tie-break rank order: a candidate sharing its exact
/// key with an interval boundary must see the interval *active* (starts
/// precede it, ends follow it) — the conservative resolution.
const KIND_START: u8 = 0;
const KIND_CAND: u8 = 1;
const KIND_END: u8 = 2;

/// One sweep event: interval start/end of a rectangle, or a candidate.
#[derive(Debug, Clone, Copy)]
struct Event {
    /// Pseudo-angle of the event direction around the pivot, in `[0, 4)`.
    key: f64,
    /// [`KIND_START`] / [`KIND_CAND`] / [`KIND_END`].
    kind: u8,
    /// Rect min-distance (start/end) or candidate distance — the active
    /// set's order and the sort's third tie-breaker.
    dist: f64,
    /// Rect id (start/end) or candidate index.
    id: u32,
}

/// The deterministic total event order: pseudo-angle, then kind, then
/// distance, then id — every component through `Ord` (floats via
/// [`OrdF64`]), so the order is transitive and NaN-free.
#[inline]
fn event_cmp(a: &Event, b: &Event) -> Ordering {
    (OrdF64(a.key), a.kind, OrdF64(a.dist), a.id).cmp(&(
        OrdF64(b.key),
        b.kind,
        OrdF64(b.dist),
        b.id,
    ))
}

/// Monotone angle substitute ("diamond angle"): maps direction `(dx, dy)`
/// to `[0, 4)`, strictly increasing with true counter-clockwise angle
/// from the +x axis. One division, no trig — and being a plain scalar it
/// sorts transitively, which a pairwise cross-product comparator cannot
/// guarantee under rounding.
#[inline]
fn pseudo_angle(dx: f64, dy: f64) -> f64 {
    let p = dx / (dx.abs() + dy.abs());
    if dy >= 0.0 {
        1.0 - p // upper half plane: [0, 2]
    } else {
        3.0 + p // lower half plane: (2, 4)
    }
}

/// Bins of the angular depth buffer behind the occlusion cull: the
/// pseudo-angle range `[0, 4)` in equal steps (≈ 0.7° each).
const DEPTH_BINS: usize = 512;

/// The depth-buffer bin of a pseudo-angle key — monotone in the key, so a
/// candidate whose key lies inside a rectangle's widened interval has its
/// bin inside that interval's bin range.
#[inline]
fn bin_of(key: f64) -> usize {
    ((key * (DEPTH_BINS as f64 / 4.0)) as usize).min(DEPTH_BINS - 1)
}

/// One rectangle of the angular filter, as the front-to-back pass sees it.
#[derive(Debug, Clone, Copy)]
struct Span {
    /// Min-distance from the pivot — the visiting order.
    md: f64,
    /// Farthest-corner distance: every ray through the rectangle has left
    /// it by then.
    far: f64,
    /// Pseudo-angle keys of the widened interval's two ends.
    start: f64,
    end: f64,
    rid: u32,
}

/// Reusable sweep buffers, retained across builds by the owning grid.
#[derive(Debug, Default)]
pub(crate) struct SweepScratch {
    events: Vec<Event>,
    /// Active rectangles, ascending `(min-distance, id)`.
    active: Vec<(f64, u32)>,
    /// Rectangles bypassing the angular filter (see `NEAR_PIVOT`).
    always: Vec<u32>,
    /// Rectangles of the angular filter, sorted front to back.
    spans: Vec<Span>,
    /// Depth buffer, one entry per bin: the smallest `far` of a rectangle
    /// whose interval covers the whole bin (∞ while the bin is open) …
    depth: Vec<f64>,
    /// … and that rectangle, the bin's witness.
    witness: Vec<u32>,
}

/// Inserts a rectangle into the distance-ordered active set.
#[inline]
fn activate(active: &mut Vec<(f64, u32)>, md: f64, rid: u32) {
    let at = active.partition_point(|&(d, r)| (OrdF64(d), r) < (OrdF64(md), rid));
    active.insert(at, (md, rid));
}

/// Removes a rectangle from the active set (present by construction:
/// every end event follows its start — or the wrap pre-activation).
#[inline]
fn deactivate(active: &mut Vec<(f64, u32)>, md: f64, rid: u32) {
    let found = active.binary_search_by(|&(d, r)| (OrdF64(d), r).cmp(&(OrdF64(md), rid)));
    debug_assert!(found.is_ok(), "end event for inactive rect {rid}");
    if let Ok(at) = found {
        active.remove(at);
    }
}

/// Sweeps all candidates around `pivot` in one pass, appending one
/// visibility verdict per candidate to `vis` (same order as `cands`).
///
/// `rect_ids` must be a superset of the rectangles that can block any
/// `pivot → candidate` segment (e.g. every obstacle overlapping a convex
/// region containing pivot and all candidates); extra ids cannot change
/// verdicts. Each verdict is exactly "some rect in `rect_ids` blocks the
/// segment" per [`Rect::blocks`] semantics — bit-identical to testing
/// candidates one by one. Returns `(exact sight tests, sweep events)`
/// for the grid's counters.
///
/// [`Rect::blocks`]: conn_geom::Rect::blocks
pub(crate) fn sweep_visibility(
    lanes: &RectLanes,
    rect_ids: &[u32],
    pivot: Point,
    cands: &[Point],
    scratch: &mut SweepScratch,
    vis: &mut Vec<bool>,
) -> (u64, u64) {
    let base = vis.len();
    vis.resize(base + cands.len(), true);
    scratch.events.clear();
    scratch.active.clear();
    scratch.always.clear();
    scratch.spans.clear();

    for &rid in rect_ids {
        let r = lanes.rect(rid as usize);
        if r.width() <= 2.0 * EPS || r.height() <= 2.0 * EPS {
            // cannot strictly contain any midpoint — never blocks
            continue;
        }
        let md = r.mindist_point(pivot);
        if md <= NEAR_PIVOT {
            scratch.always.push(rid);
            continue;
        }
        // Extreme corner directions: the pivot is strictly outside the
        // rectangle, so it subtends an interval of extent < π and the
        // clockwise-most / counter-clockwise-most corners are well
        // defined by pairwise cross products.
        let corners = r.corners();
        let (mut sx, mut sy) = (corners[0].x - pivot.x, corners[0].y - pivot.y);
        let (mut ex, mut ey) = (sx, sy);
        let mut far_sq = sx * sx + sy * sy;
        for c in &corners[1..] {
            let (dx, dy) = (c.x - pivot.x, c.y - pivot.y);
            if sx * dy - sy * dx < 0.0 {
                (sx, sy) = (dx, dy);
            }
            if ex * dy - ey * dx > 0.0 {
                (ex, ey) = (dx, dy);
            }
            far_sq = far_sq.max(dx * dx + dy * dy);
        }
        // Widen outward by WIDEN radians: start clockwise, end counter-
        // clockwise. Swallows every direction rounding error; a too-wide
        // interval only costs redundant exact tests.
        scratch.spans.push(Span {
            md,
            far: far_sq.sqrt(),
            start: pseudo_angle(sx + sy * WIDEN, sy - sx * WIDEN),
            end: pseudo_angle(ex - ey * WIDEN, ey + ex * WIDEN),
            rid,
        });
    }

    // Front-to-back occlusion cull (module docs): a rectangle lying wholly
    // behind nearer ones emits no events, the others close the bins their
    // interval covers.
    scratch
        .spans
        .sort_unstable_by_key(|s| (OrdF64(s.md), s.rid));
    scratch.depth.clear();
    scratch.depth.resize(DEPTH_BINS, f64::INFINITY);
    scratch.witness.resize(DEPTH_BINS, 0);
    for si in 0..scratch.spans.len() {
        let Span {
            md,
            far,
            start,
            end,
            rid,
        } = scratch.spans[si];
        let (first, last) = (bin_of(start), bin_of(end));
        // an interval whose start key exceeds its end key wraps the sweep
        // origin; its bins run first..DEPTH_BINS then 0..=last
        let wraps = start > end;
        let count = if wraps {
            DEPTH_BINS - first + last + 1
        } else {
            last - first + 1
        };
        let mut hidden = true;
        for step in 0..count {
            let bin = (first + step) % DEPTH_BINS;
            if scratch.depth[bin] >= md {
                hidden = false;
                // the two end bins are only partly covered
                if step > 0 && step + 1 < count && far < scratch.depth[bin] {
                    scratch.depth[bin] = far;
                    scratch.witness[bin] = rid;
                }
            }
        }
        if hidden {
            continue;
        }
        if wraps {
            // active from the start: the end event deactivates, the start
            // event re-activates for the tail arc
            activate(&mut scratch.active, md, rid);
        }
        scratch.events.push(Event {
            key: start,
            kind: KIND_START,
            dist: md,
            id: rid,
        });
        scratch.events.push(Event {
            key: end,
            kind: KIND_END,
            dist: md,
            id: rid,
        });
    }

    let mut sight_tests = 0_u64;
    for (j, c) in cands.iter().enumerate() {
        let (dx, dy) = (c.x - pivot.x, c.y - pivot.y);
        if dx == 0.0 && dy == 0.0 {
            // zero-length sight line: no clipped range can exceed 2·EPS,
            // so nothing blocks it — verdict stays `visible`
            continue;
        }
        let (key, dist) = (pseudo_angle(dx, dy), pivot.dist(*c));
        let bin = bin_of(key);
        if scratch.depth[bin] < dist {
            // the bin closed nearer than the candidate: the witness almost
            // surely blocks it — one exact probe certifies that, and a
            // refuted hint falls back to the whole set, so the verdict is
            // exact either way
            let probe = SegProbe::new(&Segment::new(pivot, *c));
            sight_tests += 1;
            vis[base + j] = !probe.blocks(lanes, scratch.witness[bin] as usize)
                && !rect_ids.iter().any(|&rid| {
                    sight_tests += 1;
                    probe.blocks(lanes, rid as usize)
                });
            continue;
        }
        scratch.events.push(Event {
            key,
            kind: KIND_CAND,
            dist,
            id: j as u32,
        });
    }

    scratch.events.sort_unstable_by(event_cmp);
    let sweep_events = scratch.events.len() as u64;
    for ei in 0..scratch.events.len() {
        let ev = scratch.events[ei];
        match ev.kind {
            KIND_START => activate(&mut scratch.active, ev.dist, ev.id),
            KIND_END => deactivate(&mut scratch.active, ev.dist, ev.id),
            _ => {
                let j = ev.id as usize;
                let probe = SegProbe::new(&Segment::new(pivot, cands[j]));
                let mut visible = true;
                for &rid in &scratch.always {
                    sight_tests += 1;
                    if probe.blocks(lanes, rid as usize) {
                        visible = false;
                        break;
                    }
                }
                if visible {
                    for &(md, rid) in &scratch.active {
                        if md > ev.dist + EPS {
                            // active set is distance-ordered and a true
                            // blocker's min-distance sits below the
                            // candidate distance by ≥ EPS — safe cut
                            break;
                        }
                        sight_tests += 1;
                        if probe.blocks(lanes, rid as usize) {
                            visible = false;
                            break;
                        }
                    }
                }
                vis[base + j] = visible;
            }
        }
    }
    (sight_tests, sweep_events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use conn_geom::Rect;

    fn brute(rects: &[Rect], pivot: Point, c: Point) -> bool {
        let seg = Segment::new(pivot, c);
        !rects.iter().any(|r| r.blocks(&seg))
    }

    /// Sweeps and checks every verdict against `brute`; returns the
    /// `(exact sight tests, sweep events)` the sweep reported.
    fn check_agreement(rects: &[Rect], pivot: Point, cands: &[Point]) -> (u64, u64) {
        let lanes = RectLanes::from_rects(rects);
        let ids: Vec<u32> = (0..rects.len() as u32).collect();
        let mut scratch = SweepScratch::default();
        let mut vis = Vec::new();
        let work = sweep_visibility(&lanes, &ids, pivot, cands, &mut scratch, &mut vis);
        assert_eq!(vis.len(), cands.len());
        for (j, &c) in cands.iter().enumerate() {
            assert_eq!(
                vis[j],
                brute(rects, pivot, c),
                "pivot {pivot} cand {c} (index {j})"
            );
        }
        work
    }

    #[test]
    fn pseudo_angle_is_monotone_in_angle() {
        let mut prev = -1.0_f64;
        for i in 0..720 {
            let th = (i as f64) * std::f64::consts::TAU / 720.0;
            let k = pseudo_angle(th.cos(), th.sin());
            assert!((0.0..4.0).contains(&k), "key {k} out of range");
            assert!(k > prev, "key not increasing at step {i}: {prev} vs {k}");
            prev = k;
        }
    }

    #[test]
    fn agrees_with_brute_force_on_pseudo_random_scenes() {
        let mut x = 0.734_f64;
        let mut rnd = move || {
            x = (x * 78.233 + 37.719).fract();
            x.abs()
        };
        for _ in 0..40 {
            let mut rects = Vec::new();
            for _ in 0..25 {
                let ax = rnd() * 900.0;
                let ay = rnd() * 900.0;
                rects.push(Rect::new(
                    ax,
                    ay,
                    ax + 2.0 + rnd() * 80.0,
                    ay + 2.0 + rnd() * 80.0,
                ));
            }
            let pivot = Point::new(rnd() * 1000.0, rnd() * 1000.0);
            let cands: Vec<Point> = (0..40)
                .map(|_| Point::new(rnd() * 1000.0, rnd() * 1000.0))
                .collect();
            check_agreement(&rects, pivot, &cands);
        }
    }

    #[test]
    fn pivot_on_rect_corner_and_shared_corners() {
        // the pivot is a corner of one rect and touches another — both go
        // through the always-active path
        let rects = [
            Rect::new(100.0, 100.0, 200.0, 200.0),
            Rect::new(200.0, 200.0, 300.0, 300.0),
            Rect::new(0.0, 150.0, 90.0, 160.0),
        ];
        let pivot = Point::new(200.0, 200.0);
        let cands = [
            Point::new(100.0, 100.0), // blocked by rect 0's interior (diagonal)
            Point::new(300.0, 300.0), // blocked by rect 1's interior
            Point::new(300.0, 200.0), // grazes rect 1's wall — visible
            Point::new(100.0, 200.0), // along rect 0's top wall — visible
            Point::new(250.0, 150.0), // open space — visible
            pivot,                    // zero-length sight line — visible
        ];
        check_agreement(&rects, pivot, &cands);
    }

    #[test]
    fn collinear_corners_and_shared_angle_events() {
        // rects stacked so several corners share the exact same direction
        // from the pivot, plus candidates at those very angles
        let rects = [
            Rect::new(10.0, -5.0, 20.0, 5.0),
            Rect::new(30.0, -5.0, 40.0, 5.0),
            Rect::new(50.0, -5.0, 60.0, 5.0),
        ];
        let pivot = Point::new(0.0, 0.0);
        let cands = [
            Point::new(5.0, 0.0),   // before the first rect
            Point::new(25.0, 0.0),  // between rects, blocked by the first
            Point::new(70.0, 0.0),  // behind all three
            Point::new(10.0, 5.0),  // exactly a corner direction
            Point::new(30.0, -5.0), // exactly a corner direction
            Point::new(0.0, 50.0),  // perpendicular, wide open
        ];
        check_agreement(&rects, pivot, &cands);
    }

    #[test]
    fn wrap_around_interval_stays_active_across_origin() {
        // a rect straddling the +x axis from the pivot: its interval wraps
        // the sweep origin, so candidates on both sides must see it
        let rects = [Rect::new(50.0, -20.0, 80.0, 20.0)];
        let pivot = Point::new(0.0, 0.0);
        let cands = [
            Point::new(100.0, 5.0),   // behind, slightly above axis
            Point::new(100.0, -5.0),  // behind, slightly below axis
            Point::new(100.0, 100.0), // well off axis — visible
            Point::new(40.0, 0.0),    // in front — visible
        ];
        check_agreement(&rects, pivot, &cands);
    }

    #[test]
    fn thin_rects_never_block() {
        let rects = [
            Rect::new(50.0, 0.0, 50.0, 100.0),             // zero width
            Rect::new(0.0, 50.0, 100.0, 50.0 + 1.5 * EPS), // sub-slack height
        ];
        let pivot = Point::new(0.0, 0.0);
        let cands = [Point::new(100.0, 100.0), Point::new(100.0, 0.0)];
        check_agreement(&rects, pivot, &cands);
    }

    #[test]
    fn cull_drops_rects_and_candidates_behind_a_nearer_rect() {
        // the wall closes every bin the three rectangles behind it touch
        // (one nested in another, one of zero width): none of them becomes
        // an event, and each candidate behind the wall costs one probe
        let rects = [
            Rect::new(-100.0, 50.0, 100.0, 60.0),
            Rect::new(-40.0, 200.0, 40.0, 260.0),
            Rect::new(-20.0, 210.0, 20.0, 240.0),
            Rect::new(10.0, 270.0, 10.0, 300.0),
        ];
        let pivot = Point::new(0.0, 0.0);
        let behind = [
            Point::new(-40.0, 200.0),
            Point::new(40.0, 260.0),
            Point::new(20.0, 240.0),
            Point::new(10.0, 300.0),
            Point::new(0.0, 500.0),
        ];
        let (tests, events) = check_agreement(&rects, pivot, &behind);
        assert_eq!(
            (tests, events),
            (5, 2),
            "the wall's two events, a probe each"
        );
        // a candidate in front of the wall is swept as ever
        let (tests, events) = check_agreement(&rects, pivot, &[Point::new(0.0, 40.0)]);
        assert_eq!((tests, events), (0, 3));
    }

    #[test]
    fn refuted_hint_falls_back_to_every_rect() {
        // the wall's left edge stands 1e-5 right of the pivot: less than
        // WIDEN at that range, so the bin just clockwise of straight up
        // counts as covered although a sliver of it looks past the wall.
        // The candidate sits in that sliver, beyond the wall's far corner.
        let rects = [
            Rect::new(1e-5, 30.0, 200.0, 40.0),
            Rect::new(50.0, 300.0, 90.0, 340.0),
            Rect::new(-90.0, -60.0, -50.0, -20.0),
        ];
        let pivot = Point::new(0.0, 0.0);
        let past_the_edge = Point::new(1e-6, 1000.0);
        assert!(brute(&rects, pivot, past_the_edge));
        let (tests, _) = check_agreement(&rects, pivot, &[past_the_edge]);
        assert_eq!(tests, 1 + rects.len() as u64, "the witness, then everyone");
    }

    #[test]
    fn rect_reaching_in_front_of_its_occluder_is_kept() {
        // the bar starts behind the wall's nearest point but in front of
        // the wall along its own directions, and ends beyond the wall's
        // far corner: every bin it touches is closed, none nearer than its
        // min-distance, so it must stay in the sweep — it alone blocks the
        // candidates between it and the wall
        let rects = [
            Rect::new(-150.0, 100.0, 150.0, 110.0),
            Rect::new(85.0, 85.0, 95.0, 200.0),
        ];
        let pivot = Point::new(0.0, 0.0);
        let cands = [
            Point::new(97.0, 99.0),  // past the bar, short of the wall
            Point::new(90.0, 98.0),  // inside the bar
            Point::new(80.0, 99.0),  // beside the bar — visible
            Point::new(97.0, 150.0), // behind both
        ];
        assert!(!brute(&rects, pivot, cands[0]) && brute(&rects, pivot, cands[2]));
        let (_, events) = check_agreement(&rects, pivot, &cands);
        assert_eq!(
            events,
            4 + 4,
            "both rectangles and all four candidates swept"
        );
    }
}
