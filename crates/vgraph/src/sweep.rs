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
//! front lookup — `O((rects + candidates) · log)` overall.
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
//! # Determinism
//!
//! Events are ordered by a precomputed **pseudo-angle** scalar (the
//! "diamond angle": monotone in true angle over `[0, 2π)`, no trig),
//! compared through [`OrdF64`] with kind, distance and id tie-breakers —
//! a transitive NaN-free total order, so the event schedule is a pure
//! function of the input set regardless of sort algorithm. Wrap-around
//! at the sweep origin (+x axis) is handled by pre-activating every
//! rectangle whose start event sorts *after* its end event.

// lint:allow-file(no-panic-in-query-path[index]): event ids are loop indices produced by this module and lane ids come from the caller's candidate superset, both in range by construction
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
/// [`SweepMode::Auto`]: the sweep's cost is dominated by building and
/// sorting the per-rect interval events, which is nearly flat in the
/// candidate count, while grid walks are linear in it. Measured against
/// a fixed 192-rect field, walks win below ~100 candidates (~1.5 µs at
/// k = 8 vs ~20 µs for the sweep's event pass), break even around
/// k ≈ 130–250 depending on clustering, and lose 2× by k = 512. In
/// production the window's rect count scales *with* the candidate count,
/// which pulls the break-even well below the fixed-field figure. Under the
/// taut rows a corner pivot keeps the candidates of its two tangent
/// quadrants and the rects meeting them: on the ledger's `continuous`
/// workload (paper scale, seed 2009) a swept build from a corner averages
/// 363 candidates against 107 rects, one from a point node 244 against
/// 116, and 96 % of all builds sweep; the 4 % under the threshold (small
/// repair/extension builds) average 29 candidates and stay on the walk
/// path. ROADMAP item 8 re-derives the constant on the ledger's per-query
/// counts (`vgraph.sight_tests_per_q`, `vgraph.sweep_events_per_q`).
pub const AUTO_MIN_CANDIDATES: usize = 48;

/// When the plane-sweep replaces per-candidate grid walks during
/// adjacency-cache construction. Verdicts (and hence CSR edge lists) are
/// identical in every mode; only the work to reach them changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SweepMode {
    /// Sweep when the candidate set is large enough to amortize the event
    /// sort ([`AUTO_MIN_CANDIDATES`]), per-candidate probes below.
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

/// Reusable sweep buffers, retained across builds by the owning grid.
#[derive(Debug, Default)]
pub(crate) struct SweepScratch {
    events: Vec<Event>,
    /// Active rectangles, ascending `(min-distance, id)`.
    active: Vec<(f64, u32)>,
    /// Rectangles bypassing the angular filter (see `NEAR_PIVOT`).
    always: Vec<u32>,
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
        for c in &corners[1..] {
            let (dx, dy) = (c.x - pivot.x, c.y - pivot.y);
            if sx * dy - sy * dx < 0.0 {
                (sx, sy) = (dx, dy);
            }
            if ex * dy - ey * dx > 0.0 {
                (ex, ey) = (dx, dy);
            }
        }
        // Widen outward by WIDEN radians: start clockwise, end counter-
        // clockwise. Swallows every direction rounding error; a too-wide
        // interval only costs redundant exact tests.
        let start = Event {
            key: pseudo_angle(sx + sy * WIDEN, sy - sx * WIDEN),
            kind: KIND_START,
            dist: md,
            id: rid,
        };
        let end = Event {
            key: pseudo_angle(ex - ey * WIDEN, ey + ex * WIDEN),
            kind: KIND_END,
            dist: md,
            id: rid,
        };
        if event_cmp(&start, &end) == Ordering::Greater {
            // interval wraps the sweep origin: active from the start, the
            // end event deactivates, the start event re-activates for the
            // tail arc
            activate(&mut scratch.active, md, rid);
        }
        scratch.events.push(start);
        scratch.events.push(end);
    }

    for (j, c) in cands.iter().enumerate() {
        let (dx, dy) = (c.x - pivot.x, c.y - pivot.y);
        if dx == 0.0 && dy == 0.0 {
            // zero-length sight line: no clipped range can exceed 2·EPS,
            // so nothing blocks it — verdict stays `visible`
            continue;
        }
        scratch.events.push(Event {
            key: pseudo_angle(dx, dy),
            kind: KIND_CAND,
            dist: pivot.dist(*c),
            id: j as u32,
        });
    }

    scratch.events.sort_unstable_by(event_cmp);
    let sweep_events = scratch.events.len() as u64;
    let mut sight_tests = 0_u64;
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

    fn check_agreement(rects: &[Rect], pivot: Point, cands: &[Point]) {
        let lanes = RectLanes::from_rects(rects);
        let ids: Vec<u32> = (0..rects.len() as u32).collect();
        let mut scratch = SweepScratch::default();
        let mut vis = Vec::new();
        sweep_visibility(&lanes, &ids, pivot, cands, &mut scratch, &mut vis);
        assert_eq!(vis.len(), cands.len());
        for (j, &c) in cands.iter().enumerate() {
            assert_eq!(
                vis[j],
                brute(rects, pivot, c),
                "pivot {pivot} cand {c} (index {j})"
            );
        }
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
}
