//! Sources feeding the search loop: data points in ascending `mindist` to
//! `q`, and obstacles loaded on demand into the local visibility graph.
//!
//! The two-R-tree setup of Algorithm 4 and the unified single-R-tree setup
//! of §4.5 differ only in where these streams come from, so the search core
//! is written against the [`QueryStreams`] trait.
//!
//! [`ObstacleStream`] is the one obstacle loader over an obstacle tree: the
//! segment streams here hold one ordered by `mindist` to `q` (Algorithm 1),
//! the point-anchored resolver of `odist.rs` one ordered by its anchor. A
//! load drains the stream up to a bound and skips every rectangle the graph
//! already [holds](VisGraph::holds), so a duplicate input rectangle, or one
//! a standing query's kept graph loaded in an earlier run, enters (and is
//! counted) once. The single-tree layout keeps its own buffer
//! (`single_tree.rs`), since one mixed traversal feeds points and obstacles.

use conn_geom::{Rect, Segment};
use conn_index::{DistShape, IoMeter, NearestIter, RStarTree};
use conn_vgraph::VisGraph;

use crate::engine::Meters;
use crate::types::DataPoint;

/// The search loop's view of its inputs.
pub(crate) trait QueryStreams {
    /// `mindist` of the next unevaluated data point (Lemma 2 gate).
    fn peek_point_dist(&mut self) -> Option<f64>;

    /// Pops the next data point (ascending `mindist(p, q)`).
    fn next_point(&mut self) -> Option<(DataPoint, f64)>;

    /// Loads every obstacle with `mindist(o, q) ≤ bound` the graph does not
    /// hold yet; returns how many were added. A bound below
    /// [`QueryStreams::loaded_bound`] loads nothing.
    fn load_obstacles_until(&mut self, g: &mut VisGraph, bound: f64) -> usize;

    /// The largest bound obstacles have been loaded to — the paper's
    /// "previous search distance d" (0 before the first load).
    fn loaded_bound(&self) -> f64;

    /// Number of obstacles loaded so far (the NOE metric).
    fn obstacles_loaded(&self) -> usize;
}

/// One obstacle stream in ascending `mindist` to its anchor, drained up to
/// a bound by each load.
pub(crate) struct ObstacleStream<'a, A: DistShape> {
    iter: NearestIter<'a, Rect, A>,
    /// Popped but beyond the bound of the load that popped it.
    pending: Option<(Rect, f64)>,
    /// The stopping rule: does an obstacle at `mindist` `d` fall within a
    /// load to `bound`?
    within: fn(f64, f64) -> bool,
    /// The largest bound the stream has been drained to (0 at first: a
    /// zero bound still loads what touches the anchor).
    upto: f64,
    /// Obstacles this stream added to the graph.
    added: usize,
}

impl<'a, A: DistShape> ObstacleStream<'a, A> {
    /// Streams `tree` by `mindist` to `anchor`, charged to `io`.
    pub(crate) fn new(
        tree: &'a RStarTree<Rect>,
        anchor: A,
        io: &'a IoMeter,
        within: fn(f64, f64) -> bool,
    ) -> Self {
        ObstacleStream {
            iter: tree.nearest_iter_metered(anchor, io),
            pending: None,
            within,
            upto: 0.0,
            added: 0,
        }
    }

    /// Adds every streamed obstacle `within` `bound` that `g` does not hold
    /// yet; returns how many were added.
    pub(crate) fn load(&mut self, g: &mut VisGraph, bound: f64) -> usize {
        if bound < self.upto {
            return 0;
        }
        let before = self.added;
        loop {
            if self.pending.is_none() {
                self.pending = self.iter.next();
            }
            match self.pending {
                Some((r, d)) if (self.within)(d, bound) => {
                    self.pending = None;
                    if !g.holds(&r) {
                        g.add_obstacle(r);
                        self.added += 1;
                    }
                }
                _ => break,
            }
        }
        self.upto = bound;
        self.added - before
    }

    /// The largest bound the stream has been drained to.
    pub(crate) fn upto(&self) -> f64 {
        self.upto
    }

    /// Obstacles this stream added to the graph (the NOE metric).
    pub(crate) fn added(&self) -> usize {
        self.added
    }
}

/// Streams over two separate R-trees (the paper's primary setting).
pub(crate) struct SegmentStreams<'a> {
    points: NearestIter<'a, DataPoint, Segment>,
    obstacles: ObstacleStream<'a, Segment>,
}

impl<'a> SegmentStreams<'a> {
    /// Opens both mindist-ordered streams for `q`, charged to `io`.
    pub(crate) fn new(
        data_tree: &'a RStarTree<DataPoint>,
        obstacle_tree: &'a RStarTree<Rect>,
        q: &Segment,
        io: &'a Meters,
    ) -> Self {
        SegmentStreams {
            points: data_tree.nearest_iter_metered(*q, &io.data),
            obstacles: ObstacleStream::new(obstacle_tree, *q, &io.obstacle, |d, bound| d <= bound),
        }
    }
}

impl QueryStreams for SegmentStreams<'_> {
    fn peek_point_dist(&mut self) -> Option<f64> {
        self.points.peek_dist()
    }

    fn next_point(&mut self) -> Option<(DataPoint, f64)> {
        self.points.next()
    }

    fn load_obstacles_until(&mut self, g: &mut VisGraph, bound: f64) -> usize {
        self.obstacles.load(g, bound)
    }

    fn loaded_bound(&self) -> f64 {
        self.obstacles.upto()
    }

    fn obstacles_loaded(&self) -> usize {
        self.obstacles.added()
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
        let mut s = SegmentStreams::new(&dt, &ot, &q, &io);
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
        let mut s = SegmentStreams::new(&dt, &ot, &q, &io);
        let mut g = VisGraph::new(50.0);
        // nearest obstacle at dist 20, second at 50, third ~ 283
        assert_eq!(s.load_obstacles_until(&mut g, 10.0), 0);
        assert_eq!(s.load_obstacles_until(&mut g, 25.0), 1);
        assert_eq!(s.obstacles_loaded(), 1);
        assert_eq!(s.loaded_bound(), 25.0);
        assert_eq!(s.load_obstacles_until(&mut g, 100.0), 1);
        assert_eq!(s.load_obstacles_until(&mut g, 100.0), 0); // idempotent
        assert_eq!(s.load_obstacles_until(&mut g, 60.0), 0);
        assert_eq!(s.loaded_bound(), 100.0, "the bound never shrinks");
        assert_eq!(s.load_obstacles_until(&mut g, 1e9), 1);
        assert_eq!(s.obstacles_loaded(), 3);
        assert_eq!(g.num_obstacles(), 3);
    }

    /// A stream skips the rectangles the graph already holds — here put
    /// there by an earlier stream over a different segment, whose mindist
    /// ordering differs.
    #[test]
    fn streams_skip_what_the_graph_already_holds() {
        let (dt, ot, q1) = setup();
        let io = Meters::default();
        let mut g = VisGraph::new(50.0);
        {
            let mut s = SegmentStreams::new(&dt, &ot, &q1, &io);
            assert_eq!(s.load_obstacles_until(&mut g, 60.0), 2);
            assert_eq!(s.obstacles_loaded(), 2);
        }
        // a segment near the far obstacle: the two already-loaded rects
        // must not be re-inserted, the third must
        let q2 = Segment::new(Point::new(200.0, 205.0), Point::new(260.0, 205.0));
        let mut s = SegmentStreams::new(&dt, &ot, &q2, &io);
        assert_eq!(s.load_obstacles_until(&mut g, 1e9), 1);
        assert_eq!(s.obstacles_loaded(), 1, "NOE counts new loads only");
        assert_eq!(g.num_obstacles(), 3);
    }
}
