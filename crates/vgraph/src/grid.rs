//! Spatial-hash grid over obstacle rectangles.
//!
//! Visibility tests ("does the sight-line `a→b` cross any obstacle
//! interior?") dominate the CPU profile of obstructed query processing. The
//! grid stores every obstacle in each cell it overlaps, **dilated by one
//! cell ring**, so a query only has to walk the exact cells its segment
//! passes through (Amanatides–Woo traversal) — the dilation absorbs all
//! boundary/corner cases without widening the walk. Each rectangle a walk
//! meets is tested once, with the scalar early-exit [`SegProbe`], and the
//! walk stops at the first blocker; the plane sweep that builds most rows
//! ([`ObstacleGrid::sweep_visibility`]) runs the same probe.

#![expect(
    clippy::indexing_slicing,
    reason = "cell coordinates are clamped to the grid extent before indexing"
)]

use conn_geom::{Point, Rect, RectLanes, SegProbe, Segment};

use crate::sweep::{self, SweepScratch};

/// Dense cell table: a rectangular arena of per-cell candidate lists
/// addressed by plain index arithmetic. Cell lookups happen once per cell
/// walked per sight test — the single hottest operation of query processing
/// — and even a fast hash map costs more per lookup than the rectangle
/// tests it guards.
///
/// The extent grows lazily to cover the cells ever inserted into (it is
/// *retained* across [`ObstacleGrid::reset`] — queries revisit the same
/// workspace region, so steady state never reallocates). Clearing is O(1):
/// a generation bump invalidates every list, and each list's allocation is
/// reused the next time its cell is touched.
#[derive(Debug, Default)]
struct CellTable {
    /// Dense extent in cell coordinates: slot `(cx, cy)` lives at
    /// `(cx - min_cx) + w * (cy - min_cy)`.
    min_cx: i32,
    min_cy: i32,
    w: i32,
    h: i32,
    /// Current generation; a list is live iff its stamp matches.
    gen: u64,
    stamps: Vec<u64>,
    lists: Vec<Vec<u32>>,
}

/// Growth margin (in cells) added around a point that falls outside the
/// current extent, bounding regrow churn while the workspace is discovered.
const GROW_PAD: i32 = 8;

impl CellTable {
    /// O(1) clear: invalidates every cell list, keeping extent and
    /// allocations.
    fn clear(&mut self) {
        self.gen += 1;
    }

    #[inline]
    fn slot(&self, cx: i32, cy: i32) -> Option<usize> {
        let (dx, dy) = (cx - self.min_cx, cy - self.min_cy);
        if dx < 0 || dy < 0 || dx >= self.w || dy >= self.h {
            return None;
        }
        Some(dx as usize + self.w as usize * dy as usize)
    }

    /// The live candidate list of a cell (empty for never-touched, stale or
    /// out-of-extent cells).
    #[inline]
    fn get(&self, cx: i32, cy: i32) -> &[u32] {
        match self.slot(cx, cy) {
            Some(i) if self.stamps[i] == self.gen => &self.lists[i],
            _ => &[],
        }
    }

    /// Appends an id to a cell's list, growing the extent when needed.
    fn push(&mut self, cx: i32, cy: i32, id: u32) {
        let i = match self.slot(cx, cy) {
            Some(i) => i,
            None => self.grow_to(cx, cy),
        };
        if self.stamps[i] != self.gen {
            self.stamps[i] = self.gen;
            self.lists[i].clear();
        }
        self.lists[i].push(id);
    }

    /// Expands the dense extent to cover `(cx, cy)` plus a margin,
    /// relocating existing slots (and their retained allocations) into the
    /// new layout. Returns the slot index of `(cx, cy)` in that layout.
    fn grow_to(&mut self, cx: i32, cy: i32) -> usize {
        let (nmin_cx, nmin_cy, nw, nh) = if self.w == 0 {
            (
                cx - GROW_PAD,
                cy - GROW_PAD,
                2 * GROW_PAD + 1,
                2 * GROW_PAD + 1,
            )
        } else {
            let min_cx = self.min_cx.min(cx - GROW_PAD);
            let min_cy = self.min_cy.min(cy - GROW_PAD);
            let max_cx = (self.min_cx + self.w - 1).max(cx + GROW_PAD);
            let max_cy = (self.min_cy + self.h - 1).max(cy + GROW_PAD);
            (min_cx, min_cy, max_cx - min_cx + 1, max_cy - min_cy + 1)
        };
        let slots = nw as usize * nh as usize;
        let mut stamps = vec![0_u64; slots];
        let mut lists: Vec<Vec<u32>> = Vec::new();
        lists.resize_with(slots, Vec::new);
        for dy in 0..self.h {
            for dx in 0..self.w {
                let old = dx as usize + self.w as usize * dy as usize;
                let ncx = (self.min_cx + dx - nmin_cx) as usize;
                let ncy = (self.min_cy + dy - nmin_cy) as usize;
                let new = ncx + nw as usize * ncy;
                stamps[new] = self.stamps[old];
                lists[new] = std::mem::take(&mut self.lists[old]);
            }
        }
        self.min_cx = nmin_cx;
        self.min_cy = nmin_cy;
        self.w = nw;
        self.h = nh;
        self.stamps = stamps;
        self.lists = lists;
        (cx - nmin_cx) as usize + nw as usize * (cy - nmin_cy) as usize
    }
}

/// Obstacle store shared by the cell-walk visitors: the canonical `Rect`
/// array (AoS, for id → rectangle lookups) plus its SoA coordinate-lane
/// mirror that the sight-test probe reads, and the per-obstacle query
/// stamps. Bundled so the traversal can hand visitors one mutable borrow
/// disjoint from the cell map.
#[derive(Debug)]
struct Store {
    rects: Vec<Rect>,
    /// SoA mirror of `rects` (minx/miny/maxx/maxy lanes) — the hot half of
    /// the obstacle store; candidate classification streams over these.
    lanes: RectLanes,
    /// query stamp per obstacle, deduplicates candidates during one walk
    stamp: Vec<u64>,
    /// lifetime count of segment-vs-rect classifications (see
    /// [`ObstacleGrid::sight_tests`])
    sight_tests: u64,
    /// lifetime count of plane-sweep events processed (see
    /// [`ObstacleGrid::sweep_events`])
    sweep_events: u64,
}

/// Obstacle index for segment-blocking queries.
#[derive(Debug)]
pub struct ObstacleGrid {
    cell: f64,
    cells: CellTable,
    store: Store,
    query_id: u64,
    /// Reusable plane-sweep buffers (see [`ObstacleGrid::sweep_visibility`]).
    sweep: SweepScratch,
}

impl ObstacleGrid {
    /// Creates a grid with the given cell size (in workspace units).
    ///
    /// Cells a few times larger than a typical obstacle work well; the CONN
    /// workloads over `[0, 10000]²` use cells of ~50 units.
    pub fn new(cell: f64) -> Self {
        assert!(cell > 0.0, "cell size must be positive");
        ObstacleGrid {
            cell,
            cells: CellTable::default(),
            store: Store {
                rects: Vec::new(),
                lanes: RectLanes::new(),
                stamp: Vec::new(),
                sight_tests: 0,
                sweep_events: 0,
            },
            query_id: 0,
            sweep: SweepScratch::default(),
        }
    }

    /// Number of registered obstacles: every id returned by
    /// [`ObstacleGrid::insert`] is `< len()`.
    pub fn len(&self) -> usize {
        self.store.rects.len()
    }

    /// True when no obstacle is registered.
    pub fn is_empty(&self) -> bool {
        self.store.rects.is_empty()
    }

    /// The registered obstacle rectangles, in insertion order (indexed by
    /// id).
    pub fn rects(&self) -> &[Rect] {
        &self.store.rects
    }

    /// Lifetime count of segment-vs-rect sight tests: one per rectangle
    /// actually tested — by [`ObstacleGrid::blocks`], by the exact probes of
    /// [`ObstacleGrid::sweep_visibility`], and by the callers that test
    /// rectangles themselves and charge them through `add_sight_tests`
    /// (visible-region shadows, row repair's re-tests). Like the Dijkstra
    /// reuse counters this is **not** cleared by [`ObstacleGrid::reset`] —
    /// callers attribute per-query counts by diffing marks across a query
    /// window.
    pub fn sight_tests(&self) -> u64 {
        self.store.sight_tests
    }

    /// Adds sight tests performed outside the grid (visible-region shadow
    /// midpoints, row repair's re-tests against newly logged rectangles)
    /// to the lifetime counter.
    pub(crate) fn add_sight_tests(&mut self, n: u64) {
        self.store.sight_tests += n;
    }

    /// Lifetime count of rotational plane-sweep events processed by
    /// [`ObstacleGrid::sweep_visibility`] — the sweep's unit of work, kept
    /// alongside [`ObstacleGrid::sight_tests`] so the old and new cost
    /// models stay comparable. Monotone across [`ObstacleGrid::reset`],
    /// like the sight-test counter.
    pub fn sweep_events(&self) -> u64 {
        self.store.sweep_events
    }

    /// Decides visibility of every candidate in `cands` from `pivot` with
    /// one rotational plane-sweep, appending one verdict per candidate to
    /// `vis` (`true` = unobstructed). `rect_ids` must be a superset of the
    /// obstacles that can block any `pivot → candidate` segment (e.g.
    /// every obstacle overlapping a convex region containing the pivot and
    /// all candidates, as returned by [`ObstacleGrid::candidates_in_rect`]).
    /// Verdicts are bit-identical to calling [`ObstacleGrid::blocks`] per
    /// candidate — the sweep only narrows which rects are *exactly*
    /// probed; see `sweep.rs` for why the filter is conservative.
    pub fn sweep_visibility(
        &mut self,
        pivot: Point,
        cands: &[Point],
        rect_ids: &[u32],
        vis: &mut Vec<bool>,
    ) {
        let (tests, events) = sweep::sweep_visibility(
            &self.store.lanes,
            rect_ids,
            pivot,
            cands,
            &mut self.sweep,
            vis,
        );
        self.store.sight_tests += tests;
        self.store.sweep_events += events;
    }

    /// Empties the grid for the next query in O(1): the dense cell table
    /// invalidates by generation bump, keeping its extent and every
    /// per-cell list allocation for the next query's inserts.
    pub fn reset(&mut self) {
        self.cells.clear();
        self.store.rects.clear();
        self.store.lanes.clear();
        self.store.stamp.clear();
    }

    /// The current cell size.
    pub fn cell_size(&self) -> f64 {
        self.cell
    }

    #[inline]
    fn cell_of(&self, x: f64, y: f64) -> (i32, i32) {
        (
            (x / self.cell).floor() as i32,
            (y / self.cell).floor() as i32,
        )
    }

    /// Registers an obstacle; returns its id within the grid.
    pub fn insert(&mut self, r: Rect) -> u32 {
        let id = self.store.rects.len() as u32;
        self.store.rects.push(r);
        self.store.lanes.push(&r);
        self.store.stamp.push(0);
        let (x0, y0) = self.cell_of(r.min_x, r.min_y);
        let (x1, y1) = self.cell_of(r.max_x, r.max_y);
        // dilate by one ring: queries then walk only exact cells
        for cx in (x0 - 1)..=(x1 + 1) {
            for cy in (y0 - 1)..=(y1 + 1) {
                self.cells.push(cx, cy, id);
            }
        }
        id
    }

    /// True when segment `a→b` passes through any obstacle's open interior.
    ///
    /// Walks the cells the segment crosses; in each, every rectangle not
    /// yet tested by this walk (the query stamp skips those listed in an
    /// earlier cell) is stamped, counted as one sight test and probed with
    /// [`SegProbe`], and the walk stops at the first blocker. Verdicts are
    /// bit-identical to per-rect [`Rect::blocks`] calls.
    pub fn blocks(&mut self, a: Point, b: Point) -> bool {
        self.query_id += 1;
        let qid = self.query_id;
        let probe = SegProbe::new(&Segment::new(a, b));
        self.walk_cells(a, b, |cells, store| {
            cells.iter().any(|&id| {
                let idx = id as usize;
                if store.stamp[idx] == qid {
                    return false;
                }
                store.stamp[idx] = qid;
                store.sight_tests += 1;
                probe.blocks(&store.lanes, idx)
            })
        })
    }

    /// Collects ids of obstacles overlapping the given rectangle region
    /// (a superset of the obstacles that can block a sight line inside it;
    /// cells are coarse, exact tests are the caller's job).
    pub fn candidates_in_rect(&mut self, r: &Rect, out: &mut Vec<u32>) {
        out.clear();
        self.query_id += 1;
        let qid = self.query_id;
        let (x0, y0) = self.cell_of(r.min_x, r.min_y);
        let (x1, y1) = self.cell_of(r.max_x, r.max_y);
        for cx in x0..=x1 {
            for cy in y0..=y1 {
                for &id in self.cells.get(cx, cy) {
                    let idx = id as usize;
                    if self.store.stamp[idx] != qid {
                        self.store.stamp[idx] = qid;
                        out.push(id);
                    }
                }
            }
        }
    }

    /// Amanatides–Woo voxel traversal from `a` to `b`; `visit` gets each
    /// non-empty cell's obstacle list and may stop the walk by returning
    /// `true`. Returns whether a visit stopped it.
    fn walk_cells<F>(&mut self, a: Point, b: Point, mut visit: F) -> bool
    where
        F: FnMut(&[u32], &mut Store) -> bool,
    {
        let (mut cx, mut cy) = self.cell_of(a.x, a.y);
        let (ex, ey) = self.cell_of(b.x, b.y);
        let dx = b.x - a.x;
        let dy = b.y - a.y;
        let step_x: i32 = if dx > 0.0 { 1 } else { -1 };
        let step_y: i32 = if dy > 0.0 { 1 } else { -1 };
        // parametric distance to the next cell boundary along each axis
        let next_boundary = |c: i32, step: i32| -> f64 {
            let edge = if step > 0 { (c + 1) as f64 } else { c as f64 };
            edge * self.cell
        };
        let mut t_max_x = if dx.abs() < f64::MIN_POSITIVE {
            f64::INFINITY
        } else {
            (next_boundary(cx, step_x) - a.x) / dx
        };
        let mut t_max_y = if dy.abs() < f64::MIN_POSITIVE {
            f64::INFINITY
        } else {
            (next_boundary(cy, step_y) - a.y) / dy
        };
        let t_delta_x = if dx.abs() < f64::MIN_POSITIVE {
            f64::INFINITY
        } else {
            self.cell / dx.abs()
        };
        let t_delta_y = if dy.abs() < f64::MIN_POSITIVE {
            f64::INFINITY
        } else {
            self.cell / dy.abs()
        };

        // cap iterations: the walk spans at most the cell-grid diagonal
        let max_steps = ((ex - cx).abs() + (ey - cy).abs() + 2) as usize;
        for _ in 0..=max_steps {
            let ids = self.cells.get(cx, cy);
            // split borrows: the cell table is not touched inside visit
            if !ids.is_empty() && visit(ids, &mut self.store) {
                return true;
            }
            if cx == ex && cy == ey {
                return false;
            }
            if t_max_x < t_max_y {
                t_max_x += t_delta_x;
                cx += step_x;
            } else {
                t_max_y += t_delta_y;
                cy += step_y;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_with(rects: &[Rect]) -> ObstacleGrid {
        let mut g = ObstacleGrid::new(50.0);
        for r in rects {
            g.insert(*r);
        }
        g
    }

    #[test]
    fn empty_grid_blocks_nothing() {
        let mut g = ObstacleGrid::new(50.0);
        assert!(!g.blocks(Point::new(0.0, 0.0), Point::new(1000.0, 1000.0)));
    }

    #[test]
    fn blocks_straight_crossing() {
        let mut g = grid_with(&[Rect::new(100.0, 100.0, 200.0, 150.0)]);
        assert!(g.blocks(Point::new(0.0, 120.0), Point::new(300.0, 120.0)));
        assert!(!g.blocks(Point::new(0.0, 300.0), Point::new(300.0, 300.0)));
    }

    #[test]
    fn boundary_touch_does_not_block() {
        let mut g = grid_with(&[Rect::new(100.0, 100.0, 200.0, 150.0)]);
        // slide along the top wall
        assert!(!g.blocks(Point::new(0.0, 150.0), Point::new(300.0, 150.0)));
        // tangent corner graze: slope −1 through the top-right corner
        // (200,150) keeps the rectangle strictly on one side
        assert!(!g.blocks(Point::new(150.0, 200.0), Point::new(250.0, 100.0)));
        // whereas a chord through the interior does block
        assert!(g.blocks(Point::new(0.0, 250.0), Point::new(250.0, 0.0)));
    }

    #[test]
    fn long_diagonal_across_many_cells() {
        let mut g = grid_with(&[Rect::new(4975.0, 4975.0, 5025.0, 5025.0)]);
        assert!(g.blocks(Point::new(0.0, 0.0), Point::new(10000.0, 10000.0)));
        assert!(!g.blocks(Point::new(0.0, 10.0), Point::new(10.0, 0.0)));
    }

    #[test]
    fn vertical_and_horizontal_walks() {
        let mut g = grid_with(&[Rect::new(495.0, 100.0, 505.0, 900.0)]);
        assert!(g.blocks(Point::new(0.0, 500.0), Point::new(1000.0, 500.0)));
        assert!(g.blocks(Point::new(500.0, 0.0), Point::new(500.0, 1000.0)));
        assert!(!g.blocks(Point::new(490.0, 0.0), Point::new(490.0, 1000.0)));
    }

    #[test]
    fn thin_obstacle_not_missed_between_cells() {
        // a wall thinner than a cell, crossed by a shallow diagonal
        let mut g = grid_with(&[Rect::new(777.0, 0.0, 779.0, 10000.0)]);
        assert!(g.blocks(Point::new(0.0, 5000.0), Point::new(10000.0, 5003.0)));
    }

    #[test]
    fn candidates_in_rect_finds_region_obstacles() {
        let rects = [
            Rect::new(100.0, 100.0, 150.0, 150.0),
            Rect::new(800.0, 800.0, 850.0, 850.0),
        ];
        let mut g = grid_with(&rects);
        let mut out = Vec::new();
        g.candidates_in_rect(&Rect::new(0.0, 0.0, 300.0, 300.0), &mut out);
        assert!(out.contains(&0));
        assert!(!out.contains(&1));
    }

    #[test]
    fn degenerate_segment_is_fine() {
        let mut g = grid_with(&[Rect::new(100.0, 100.0, 200.0, 150.0)]);
        // zero-length sight-line inside an obstacle cell but on no interior path
        assert!(!g.blocks(Point::new(100.0, 100.0), Point::new(100.0, 100.0)));
    }

    /// A walk is charged one sight test per rectangle it probes, not per
    /// rectangle its cell lists: the first of twelve rectangles in the
    /// start cell blocks, so the walk stops after one probe.
    #[test]
    fn a_blocked_dense_cell_charges_only_the_probes_it_ran() {
        let mut rects = vec![Rect::new(110.0, 110.0, 140.0, 140.0)];
        rects.extend((0..11).map(|i| {
            let x = 101.0 + 0.5 * f64::from(i);
            Rect::new(x, 101.0, x + 0.25, 105.0)
        }));
        let mut g = grid_with(&rects);
        assert_eq!(g.cells.get(2, 2).len(), 12, "one cell lists all twelve");
        assert!(g.blocks(Point::new(120.0, 102.0), Point::new(120.0, 148.0)));
        assert_eq!(g.sight_tests(), 1);
    }

    #[test]
    fn exhaustive_agreement_with_linear_scan() {
        // pseudo-random rects + segments; grid must agree with brute force
        let mut rects = Vec::new();
        let mut x = 12.9898_f64;
        let mut rnd = move || {
            x = (x * 78.233 + 37.719).fract();
            x.abs()
        };
        for _ in 0..60 {
            let ax = rnd() * 900.0;
            let ay = rnd() * 900.0;
            rects.push(Rect::new(
                ax,
                ay,
                ax + 5.0 + rnd() * 60.0,
                ay + 5.0 + rnd() * 60.0,
            ));
        }
        let mut g = grid_with(&rects);
        for _ in 0..300 {
            let a = Point::new(rnd() * 1000.0, rnd() * 1000.0);
            let b = Point::new(rnd() * 1000.0, rnd() * 1000.0);
            let seg = Segment::new(a, b);
            let brute = rects.iter().any(|r| r.blocks(&seg));
            assert_eq!(g.blocks(a, b), brute, "a={a} b={b}");
        }
    }
}
