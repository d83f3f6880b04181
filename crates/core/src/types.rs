//! Identified data points as stored in the data R-tree.

use conn_geom::{Point, Rect};
use conn_index::Mbr;

/// A data point of `P`: an application object (gas station, survivor, …)
/// with a stable identifier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DataPoint {
    /// Stable application identifier.
    pub id: u32,
    /// Location in the plane.
    pub pos: Point,
}

impl DataPoint {
    /// A data point with identifier `id` at `pos`.
    pub fn new(id: u32, pos: Point) -> Self {
        DataPoint { id, pos }
    }

    /// Wraps raw points with sequential ids.
    pub fn from_points(points: &[Point]) -> Vec<DataPoint> {
        points
            .iter()
            .enumerate()
            .map(|(i, &p)| DataPoint::new(i as u32, p))
            .collect()
    }
}

impl Mbr for DataPoint {
    #[inline]
    fn mbr(&self) -> Rect {
        Rect::from_point(self.pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_points_assigns_sequential_ids() {
        let pts = vec![Point::new(1.0, 2.0), Point::new(3.0, 4.0)];
        let dps = DataPoint::from_points(&pts);
        assert_eq!(dps[0].id, 0);
        assert_eq!(dps[1].id, 1);
        assert_eq!(dps[1].pos, Point::new(3.0, 4.0));
    }

    #[test]
    fn mbr_is_degenerate_rect() {
        let dp = DataPoint::new(7, Point::new(5.0, 6.0));
        assert_eq!(dp.mbr().area(), 0.0);
        assert!(dp.mbr().contains(dp.pos));
    }
}
