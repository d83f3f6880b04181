//! Sources feeding the search loop: data points in ascending `mindist` to
//! `q`, and obstacles loaded on demand into the local visibility graph.
//!
//! The two-R-tree setup of Algorithm 4 and the unified single-R-tree setup
//! of §4.5 differ only in where these streams come from, so the search core
//! is written against the [`QueryStreams`] trait.

use conn_geom::{Rect, Segment};
use conn_index::{NearestIter, RStarTree};
use conn_vgraph::VisGraph;

use crate::engine::Meters;
use crate::types::DataPoint;

/// The search loop's view of its inputs.
pub(crate) trait QueryStreams {
    /// `mindist` of the next unevaluated data point (Lemma 2 gate).
    fn peek_point_dist(&mut self) -> Option<f64>;

    /// Pops the next data point (ascending `mindist(p, q)`).
    fn next_point(&mut self) -> Option<(DataPoint, f64)>;

    /// Loads every not-yet-loaded obstacle with `mindist(o, q) ≤ bound`
    /// into the graph; returns how many were added.
    fn load_obstacles_until(&mut self, g: &mut VisGraph, bound: f64) -> usize;

    /// Loads the single nearest not-yet-loaded obstacle regardless of
    /// bound; returns 0 when the obstacle source is exhausted.
    fn load_next_obstacle(&mut self, g: &mut VisGraph) -> usize;

    /// Number of obstacles loaded so far (the NOE metric).
    fn obstacles_loaded(&self) -> usize;
}

/// The set of tree obstacles a visibility graph already holds. Loads are
/// monotone while a graph lives — a loaded rectangle is a real obstacle for
/// every later anchor of the point-anchored loader ([`crate::odist`]), and
/// for every later re-run of a standing CONN on the graph its kernel keeps
/// ([`crate::live`]) — so a stream re-opened over the same graph consults
/// this set to avoid re-inserting (and re-counting) rectangles.
#[derive(Debug, Default)]
pub(crate) struct LoadedObstacles {
    keys: std::collections::HashSet<[u64; 4]>,
}

impl LoadedObstacles {
    /// Records `r` as loaded; returns `false` when it already was.
    pub(crate) fn insert(&mut self, r: &Rect) -> bool {
        self.keys.insert(r.bit_key())
    }

    /// Forgets `r` (it was removed from the graph); returns `false` when
    /// it was not loaded.
    pub(crate) fn remove(&mut self, r: &Rect) -> bool {
        self.keys.remove(&r.bit_key())
    }

    fn contains(&self, r: &Rect) -> bool {
        self.keys.contains(&r.bit_key())
    }

    /// Forgets everything (the owning graph was reset).
    pub(crate) fn clear(&mut self) {
        self.keys.clear();
    }
}

/// Streams over two separate R-trees (the paper's primary setting), the
/// obstacle stream filtered against a [`LoadedObstacles`]: rectangles
/// already in the graph are skipped instead of re-inserted, so NOE counts
/// every obstacle once. A fresh query dedupes against the workspace's own
/// set, emptied for it; a standing CONN's warm re-run against its kernel's
/// set, which holds what earlier runs loaded into the graph it keeps.
pub(crate) struct SegmentStreams<'a, 's> {
    points: NearestIter<'a, DataPoint, Segment>,
    obstacles: NearestIter<'a, Rect, Segment>,
    pending_obstacle: Option<(Rect, f64)>,
    loaded: &'s mut LoadedObstacles,
    loaded_now: usize,
}

impl<'a, 's> SegmentStreams<'a, 's> {
    /// Opens both mindist-ordered streams for `q`, charged to `io`,
    /// deduplicating against `loaded`.
    pub(crate) fn new(
        data_tree: &'a RStarTree<DataPoint>,
        obstacle_tree: &'a RStarTree<Rect>,
        q: &Segment,
        io: &'a Meters,
        loaded: &'s mut LoadedObstacles,
    ) -> Self {
        SegmentStreams {
            points: data_tree.nearest_iter_metered(*q, &io.data),
            obstacles: obstacle_tree.nearest_iter_metered(*q, &io.obstacle),
            pending_obstacle: None,
            loaded,
            loaded_now: 0,
        }
    }

    /// Next not-yet-loaded obstacle's mindist to `q`.
    fn peek_obstacle_dist(&mut self) -> Option<f64> {
        while self.pending_obstacle.is_none() {
            match self.obstacles.next() {
                Some((r, _)) if self.loaded.contains(&r) => continue,
                next => {
                    self.pending_obstacle = next;
                    break;
                }
            }
        }
        self.pending_obstacle.as_ref().map(|(_, d)| *d)
    }

    fn pop_obstacle(&mut self) -> Option<Rect> {
        self.peek_obstacle_dist();
        self.pending_obstacle.take().map(|(r, _)| r)
    }
}

impl QueryStreams for SegmentStreams<'_, '_> {
    fn peek_point_dist(&mut self) -> Option<f64> {
        self.points.peek_dist()
    }

    fn next_point(&mut self) -> Option<(DataPoint, f64)> {
        self.points.next()
    }

    fn load_obstacles_until(&mut self, g: &mut VisGraph, bound: f64) -> usize {
        let mut added = 0;
        while let Some(d) = self.peek_obstacle_dist() {
            if d > bound {
                break;
            }
            #[expect(clippy::expect_used, reason = "guarded by the peek on the line above")]
            let r = self.pop_obstacle().expect("peeked obstacle");
            self.loaded.insert(&r);
            g.add_obstacle(r);
            added += 1;
        }
        self.loaded_now += added;
        added
    }

    fn load_next_obstacle(&mut self, g: &mut VisGraph) -> usize {
        match self.pop_obstacle() {
            Some(r) => {
                self.loaded.insert(&r);
                g.add_obstacle(r);
                self.loaded_now += 1;
                1
            }
            None => 0,
        }
    }

    fn obstacles_loaded(&self) -> usize {
        self.loaded_now
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conn_geom::Point;

    fn setup() -> (RStarTree<DataPoint>, RStarTree<Rect>, Segment) {
        let points = vec![
            DataPoint::new(0, Point::new(10.0, 10.0)),
            DataPoint::new(1, Point::new(50.0, 5.0)),
            DataPoint::new(2, Point::new(90.0, 40.0)),
        ];
        let obstacles = vec![
            Rect::new(20.0, 20.0, 30.0, 30.0),
            Rect::new(60.0, 50.0, 70.0, 60.0),
            Rect::new(200.0, 200.0, 210.0, 210.0),
        ];
        let q = Segment::new(Point::new(0.0, 0.0), Point::new(100.0, 0.0));
        (
            RStarTree::bulk_load(points, 4096),
            RStarTree::bulk_load(obstacles, 4096),
            q,
        )
    }

    #[test]
    fn points_arrive_in_mindist_order() {
        let (dt, ot, q) = setup();
        let io = Meters::default();
        let mut loaded = LoadedObstacles::default();
        let mut s = SegmentStreams::new(&dt, &ot, &q, &io, &mut loaded);
        let mut prev = 0.0;
        while let Some(d) = s.peek_point_dist() {
            let (_, got) = s.next_point().unwrap();
            assert_eq!(d, got);
            assert!(got >= prev);
            prev = got;
        }
        assert!(s.next_point().is_none());
    }

    #[test]
    fn load_until_respects_bound_and_counts() {
        let (dt, ot, q) = setup();
        let io = Meters::default();
        let mut loaded = LoadedObstacles::default();
        let mut s = SegmentStreams::new(&dt, &ot, &q, &io, &mut loaded);
        let mut g = VisGraph::new(50.0);
        // nearest obstacle at dist 20, second at 50, third ~ 283
        assert_eq!(s.load_obstacles_until(&mut g, 10.0), 0);
        assert_eq!(s.load_obstacles_until(&mut g, 25.0), 1);
        assert_eq!(s.obstacles_loaded(), 1);
        assert_eq!(s.load_obstacles_until(&mut g, 100.0), 1);
        assert_eq!(s.load_obstacles_until(&mut g, 100.0), 0); // idempotent
        assert_eq!(s.load_next_obstacle(&mut g), 1);
        assert_eq!(s.load_next_obstacle(&mut g), 0); // exhausted
        assert_eq!(s.obstacles_loaded(), 3);
        assert_eq!(g.num_obstacles(), 3);
    }

    /// A stream skips the rectangles an earlier stream over the same
    /// loaded set put in the graph — even though the new segment's mindist
    /// ordering differs.
    #[test]
    fn streams_skip_what_the_graph_already_holds() {
        let (dt, ot, q1) = setup();
        let io = Meters::default();
        let mut loaded = LoadedObstacles::default();
        let mut g = VisGraph::new(50.0);
        {
            let mut s = SegmentStreams::new(&dt, &ot, &q1, &io, &mut loaded);
            assert_eq!(s.load_obstacles_until(&mut g, 60.0), 2);
            assert_eq!(s.obstacles_loaded(), 2);
        }
        assert_eq!(loaded.keys.len(), 2);
        // a segment near the far obstacle: the two already-loaded rects
        // must not be re-inserted, the third must
        let q2 = Segment::new(Point::new(200.0, 205.0), Point::new(260.0, 205.0));
        let mut s = SegmentStreams::new(&dt, &ot, &q2, &io, &mut loaded);
        assert_eq!(s.load_obstacles_until(&mut g, 1e9), 1);
        assert_eq!(s.obstacles_loaded(), 1, "NOE counts new loads only");
        assert_eq!(g.num_obstacles(), 3);
        assert_eq!(s.load_next_obstacle(&mut g), 0);
        assert_eq!(loaded.keys.len(), 3);
    }
}
