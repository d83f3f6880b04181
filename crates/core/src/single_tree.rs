//! Single unified R-tree variant (paper §4.5, evaluated in Figure 13).
//!
//! Data points and obstacles live in one R\*-tree. A single best-first
//! traversal keyed by `mindist` to `q` feeds *both* consumers: data points
//! pop in ascending order for the main loop, and obstacles stream into the
//! visibility graph on demand. Because the underlying iterator yields items
//! in globally ascending `mindist`, buffering whichever kind the current
//! consumer does not want preserves each kind's ordering. This buffer is
//! the layout's own obstacle loader: the two-tree `ObstacleStream` cannot
//! serve it, since its traversal yields points too. Like that stream, it
//! skips what the graph already holds (a duplicate input rectangle).
//!
//! The 1T variant inherits the configured obstructed-distance kernel
//! unchanged — goal-directed A*, label continuation and the RLU expansion
//! cap all live below the [`QueryStreams`] abstraction, so the tree layout
//! and the kernel compose freely.

use std::collections::VecDeque;

use conn_geom::{Rect, Segment};
use conn_index::{IoMeter, Mbr, NearestIter, RStarTree};
use conn_vgraph::VisGraph;

use crate::streams::QueryStreams;
use crate::types::DataPoint;

/// An entry of the unified tree: either a data point or an obstacle.
#[derive(Debug, Clone, Copy)]
pub enum SpatialObject {
    /// A data point of `P`.
    Point(DataPoint),
    /// An obstacle rectangle of `O`.
    Obstacle(Rect),
}

impl Mbr for SpatialObject {
    #[inline]
    fn mbr(&self) -> Rect {
        match self {
            SpatialObject::Point(p) => p.mbr(),
            SpatialObject::Obstacle(r) => *r,
        }
    }
}

/// Bulk-loads points and obstacles into one unified R\*-tree.
pub fn build_unified_tree(
    points: &[DataPoint],
    obstacles: &[Rect],
    page_size: usize,
) -> RStarTree<SpatialObject> {
    let items: Vec<SpatialObject> = points
        .iter()
        .map(|p| SpatialObject::Point(*p))
        .chain(obstacles.iter().map(|r| SpatialObject::Obstacle(*r)))
        .collect();
    RStarTree::bulk_load(items, page_size)
}

/// Query streams over a single mixed best-first traversal.
pub(crate) struct OneTreeStreams<'a> {
    iter: NearestIter<'a, SpatialObject, Segment>,
    point_buf: VecDeque<(DataPoint, f64)>,
    obstacle_buf: VecDeque<(Rect, f64)>,
    /// The largest bound obstacles have been loaded to.
    upto: f64,
    loaded: usize,
}

impl<'a> OneTreeStreams<'a> {
    /// Streams over the unified tree, ordered by `mindist` to `q` and
    /// charged to `io`.
    pub(crate) fn new(tree: &'a RStarTree<SpatialObject>, q: &Segment, io: &'a IoMeter) -> Self {
        OneTreeStreams {
            iter: tree.nearest_iter_metered(*q, io),
            point_buf: VecDeque::new(),
            obstacle_buf: VecDeque::new(),
            upto: 0.0,
            loaded: 0,
        }
    }

    /// Advances the mixed iterator once, routing the item to its buffer.
    /// Returns false when exhausted.
    fn pull(&mut self) -> bool {
        match self.iter.next() {
            Some((SpatialObject::Point(p), d)) => {
                self.point_buf.push_back((p, d));
                true
            }
            Some((SpatialObject::Obstacle(r), d)) => {
                self.obstacle_buf.push_back((r, d));
                true
            }
            None => false,
        }
    }

    fn ensure_point(&mut self) -> bool {
        while self.point_buf.is_empty() {
            if !self.pull() {
                return false;
            }
        }
        true
    }
}

impl QueryStreams for OneTreeStreams<'_> {
    fn peek_point_dist(&mut self) -> Option<f64> {
        if self.ensure_point() {
            self.point_buf.front().map(|(_, d)| *d)
        } else {
            None
        }
    }

    fn next_point(&mut self) -> Option<(DataPoint, f64)> {
        if self.ensure_point() {
            self.point_buf.pop_front()
        } else {
            None
        }
    }

    fn load_obstacles_until(&mut self, g: &mut VisGraph, bound: f64) -> usize {
        if bound < self.upto {
            return 0;
        }
        self.upto = bound;
        let before = self.loaded;
        loop {
            // drain buffered obstacles within the bound
            while let Some(&(r, d)) = self.obstacle_buf.front() {
                if d > bound {
                    return self.loaded - before;
                }
                self.obstacle_buf.pop_front();
                if !g.holds(&r) {
                    g.add_obstacle(r);
                    self.loaded += 1;
                }
            }
            // buffer empty: anything unseen is at least at the frontier dist
            match self.iter.peek_dist() {
                Some(d) if d <= bound && self.pull() => {}
                _ => return self.loaded - before,
            }
        }
    }

    fn loaded_bound(&self) -> f64 {
        self.upto
    }

    fn obstacles_loaded(&self) -> usize {
        self.loaded
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConnConfig, QueryEngine};
    use conn_geom::Point;

    fn q() -> Segment {
        Segment::new(Point::new(0.0, 0.0), Point::new(100.0, 0.0))
    }

    fn setup() -> (Vec<DataPoint>, Vec<Rect>) {
        let points = vec![
            DataPoint::new(0, Point::new(10.0, 20.0)),
            DataPoint::new(1, Point::new(50.0, 8.0)),
            DataPoint::new(2, Point::new(90.0, 25.0)),
            DataPoint::new(3, Point::new(45.0, 60.0)),
        ];
        let obstacles = vec![
            Rect::new(30.0, 5.0, 40.0, 30.0),
            Rect::new(60.0, 10.0, 75.0, 18.0),
            Rect::new(20.0, 40.0, 60.0, 50.0),
        ];
        (points, obstacles)
    }

    #[test]
    fn one_tree_matches_two_tree_answers() {
        let (points, obstacles) = setup();
        let dt = RStarTree::bulk_load(points.clone(), 4096);
        let ot = RStarTree::bulk_load(obstacles.clone(), 4096);
        let ut = build_unified_tree(&points, &obstacles, 4096);
        let cfg = ConnConfig::default();
        let (two, _) = QueryEngine::new(cfg).conn(&dt, &ot, &q());
        let (one, _) = QueryEngine::new(cfg).coknn_single_tree(&ut, &q(), 1);
        one.check_cover().unwrap();
        for i in 0..=50 {
            let t = 100.0 * (i as f64) / 50.0;
            match (two.nn_at(t), one.nn_at(t)) {
                (Some((p2, d2)), Some((p1, d1))) => {
                    assert!((d1 - d2).abs() < 1e-6, "t={t}: {d1} vs {d2}");
                    // equal distance ties may differ in id; ids equal otherwise
                    if (d1 - d2).abs() < 1e-9 && p1.id != p2.id {
                        continue;
                    }
                    assert_eq!(p1.id, p2.id, "t={t}");
                }
                (a, b) => assert_eq!(a.is_none(), b.is_none(), "t={t}"),
            }
        }
    }

    #[test]
    fn mixed_stream_orders_each_kind() {
        let (points, obstacles) = setup();
        let ut = build_unified_tree(&points, &obstacles, 4096);
        let io = IoMeter::default();
        let mut s = OneTreeStreams::new(&ut, &q(), &io);
        let mut g = VisGraph::new(50.0);
        // points arrive ascending
        let mut prev = 0.0;
        let mut n = 0;
        while let Some((_, d)) = s.next_point() {
            assert!(d >= prev);
            prev = d;
            n += 1;
        }
        assert_eq!(n, points.len());
        // obstacles all loadable afterwards
        assert_eq!(
            s.load_obstacles_until(&mut g, f64::INFINITY),
            obstacles.len()
        );
        assert_eq!(s.obstacles_loaded(), obstacles.len());
    }

    /// A rectangle given twice enters the graph, and NOE, once.
    #[test]
    fn duplicate_obstacles_load_once() {
        let (points, mut obstacles) = setup();
        obstacles.push(obstacles[0]);
        let ut = build_unified_tree(&points, &obstacles, 4096);
        let io = IoMeter::default();
        let mut s = OneTreeStreams::new(&ut, &q(), &io);
        let mut g = VisGraph::new(50.0);
        assert_eq!(s.load_obstacles_until(&mut g, f64::INFINITY), 3);
        assert_eq!((s.obstacles_loaded(), g.num_obstacles()), (3, 3));
    }

    #[test]
    fn single_tree_io_reported_on_data_side() {
        let (points, obstacles) = setup();
        let ut = build_unified_tree(&points, &obstacles, 4096);
        let (_, stats) = QueryEngine::default().coknn_single_tree(&ut, &q(), 1);
        assert!(stats.data_io.reads > 0);
        assert_eq!(stats.obstacle_io.reads, 0);
    }
}
